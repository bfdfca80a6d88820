package mosaic_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/mosaic-hpc/mosaic"
)

func writeCorpus(t *testing.T, dir string, apps, maxTraces int, seed int64) int {
	t.Helper()
	profile := mosaic.DefaultCorpusProfile()
	profile.Apps = apps
	profile.Seed = seed
	corpus := mosaic.PlanCorpus(profile)
	n := 0
	var werr error
	corpus.Each(func(r mosaic.CorpusRun) bool {
		name := filepath.Join(dir, r.Job.User+"_"+r.Job.AppName()+"_"+itoa(int(r.Job.JobID))+".mosd")
		if err := mosaic.WriteTrace(name, r.Job); err != nil {
			werr = err
			return false
		}
		n++
		return n < maxTraces
	})
	if werr != nil {
		t.Fatal(werr)
	}
	return n
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestAnalyzeCorpusEndToEnd(t *testing.T) {
	dir := t.TempDir()
	n := writeCorpus(t, dir, 30, 300, 5)
	analysis, err := mosaic.AnalyzeCorpus(dir, mosaic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Funnel.Total != n {
		t.Fatalf("funnel total = %d, want %d", analysis.Funnel.Total, n)
	}
	if analysis.Funnel.Corrupted == 0 {
		t.Fatal("expected some corrupted traces at the default 32% rate")
	}
	if len(analysis.Apps) != analysis.Funnel.UniqueApps {
		t.Fatalf("apps %d != unique %d", len(analysis.Apps), analysis.Funnel.UniqueApps)
	}
	for _, app := range analysis.Apps {
		if app.Result == nil || len(app.Result.Labels) == 0 {
			t.Fatal("app without categories")
		}
		if app.Runs < 1 {
			t.Fatal("app without runs")
		}
	}
	var buf bytes.Buffer
	analysis.WriteReport(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
	if top := analysis.TopCategories(); len(top) == 0 {
		t.Fatal("no top categories")
	}
}

func TestCategorizeFacade(t *testing.T) {
	job := &mosaic.Job{
		JobID: 1, User: "u", Exe: "/bin/app", NProcs: 4,
		Start: 0, End: 1000, Runtime: 1000,
		Records: []mosaic.FileRecord{{
			Module: mosaic.ModPOSIX, Path: "/in",
			C: mosaic.Counters{Reads: 10, BytesRead: 1 << 30, ReadStart: 5, ReadEnd: 60},
		}},
	}
	if err := mosaic.Validate(job); err != nil {
		t.Fatal(err)
	}
	res, err := mosaic.Categorize(job, mosaic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Categories.Has(mosaic.Temporal(mosaic.DirRead, mosaic.OnStart)) {
		t.Fatalf("categories = %v", res.Categories)
	}
	var buf bytes.Buffer
	mosaic.Explain(&buf, res)
	if buf.Len() == 0 {
		t.Fatal("empty explanation")
	}
	// MustCategorize mirrors Categorize on valid traces.
	if got := mosaic.MustCategorize(job, mosaic.DefaultConfig()); got == nil {
		t.Fatal("MustCategorize returned nil")
	}
}

func TestValidateFacadeDetectsCorruption(t *testing.T) {
	bad := &mosaic.Job{Runtime: -1, NProcs: 1}
	err := mosaic.Validate(bad)
	if err == nil || !mosaic.IsCorrupted(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestCategorizeAllSkipsCorrupted(t *testing.T) {
	profile := mosaic.DefaultCorpusProfile()
	profile.Apps = 10
	profile.Seed = 3
	corpus := mosaic.PlanCorpus(profile)
	var jobs []*mosaic.Job
	var corrupted int
	corpus.Each(func(r mosaic.CorpusRun) bool {
		jobs = append(jobs, r.Job)
		if r.Corrupted {
			corrupted++
		}
		return len(jobs) < 100
	})
	results, err := mosaic.CategorizeAll(context.Background(), jobs, mosaic.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var nils, oks int
	for _, r := range results {
		if r == nil {
			nils++
		} else {
			oks++
		}
	}
	if nils != corrupted {
		t.Fatalf("nil results = %d, corrupted = %d", nils, corrupted)
	}
	if oks == 0 {
		t.Fatal("no successful categorizations")
	}
}

func TestAnalyzeJobsMatchesTruthMostly(t *testing.T) {
	profile := mosaic.DefaultCorpusProfile()
	profile.Apps = 40
	profile.Seed = 9
	profile.CorruptionRate = 0 // clean corpus for truth comparison
	corpus := mosaic.PlanCorpus(profile)
	var jobs []*mosaic.Job
	corpus.Each(func(r mosaic.CorpusRun) bool {
		jobs = append(jobs, r.Job)
		return len(jobs) < 400
	})
	results, err := mosaic.CategorizeAll(context.Background(), jobs, mosaic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	match, total := 0, 0
	for i, r := range results {
		if r == nil {
			continue
		}
		truth := mosaic.Truth(jobs[i])
		if truth == 0 {
			t.Fatal("generated job without truth")
		}
		total++
		if r.Categories.Equal(truth) {
			match++
		}
	}
	if total == 0 {
		t.Fatal("no traces scored")
	}
	accuracy := float64(match) / float64(total)
	// The paper reports 92%; the synthetic corpus is cleaner, so demand
	// at least that.
	if accuracy < 0.92 {
		t.Fatalf("accuracy = %.2f, want >= 0.92", accuracy)
	}
}

// TestClusterFacade: the re-exported routing table places every key on
// rf distinct members, owner first, whatever order the membership is
// listed in.
func TestClusterFacade(t *testing.T) {
	if _, err := mosaic.NewClusterTable(nil, 0, 0); err == nil {
		t.Fatal("empty membership accepted")
	}
	nodes := []mosaic.ClusterNode{{ID: "a", Addr: "h1:7070"}, {ID: "b", Addr: "h2:7070"}, {ID: "c", Addr: "h3:7070"}}
	table, err := mosaic.NewClusterTable(nodes, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := mosaic.NewClusterTable([]mosaic.ClusterNode{nodes[2], nodes[0], nodes[1]}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if table.RF() != 2 || table.VirtualNodes() <= 0 || table.Version() != shuffled.Version() {
		t.Fatalf("rf=%d vnodes=%d versions %x/%x", table.RF(), table.VirtualNodes(), table.Version(), shuffled.Version())
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("trace-%d", i)
		reps := table.Replicas(key)
		if len(reps) != 2 || reps[0] == reps[1] || reps[0] != table.Owner(key) {
			t.Fatalf("%s: replicas %v, owner %v", key, reps, table.Owner(key))
		}
		if other := shuffled.Replicas(key); other[0] != reps[0] || other[1] != reps[1] {
			t.Fatalf("%s: placement depends on membership order: %v vs %v", key, reps, other)
		}
	}
}

func TestTraceBuilderFacade(t *testing.T) {
	arch, ok := mosaic.ArchetypeByName("checkpointer-minute")
	if !ok {
		t.Fatal("archetype lookup failed")
	}
	if len(mosaic.Archetypes()) < 10 {
		t.Fatal("too few archetypes")
	}
	_ = arch
}
