package mosaic_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

func writeCorpus(t *testing.T, dir string, apps, maxTraces int, seed int64) int {
	t.Helper()
	profile := gen.DefaultProfile()
	profile.Apps = apps
	profile.Seed = seed
	corpus := gen.Plan(profile)
	n := 0
	var werr error
	corpus.Each(func(r gen.Run) bool {
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
	analysis, err := mosaic.AnalyzeCorpusContext(context.Background(), dir, mosaic.Options{})
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
	if !res.Categories.Has(category.Temporal(category.DirRead, category.OnStart)) {
		t.Fatalf("categories = %v", res.Categories)
	}
	var buf bytes.Buffer
	mosaic.Explain(&buf, res)
	if buf.Len() == 0 {
		t.Fatal("empty explanation")
	}
}

func TestValidateFacadeDetectsCorruption(t *testing.T) {
	bad := &mosaic.Job{Runtime: -1, NProcs: 1}
	err := mosaic.Validate(bad)
	if err == nil || !errors.Is(err, darshan.ErrCorrupted) {
		t.Fatalf("err = %v", err)
	}
}

func TestCategorizeAllSkipsCorrupted(t *testing.T) {
	profile := gen.DefaultProfile()
	profile.Apps = 10
	profile.Seed = 3
	corpus := gen.Plan(profile)
	var jobs []*mosaic.Job
	var corrupted int
	corpus.Each(func(r gen.Run) bool {
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
	profile := gen.DefaultProfile()
	profile.Apps = 40
	profile.Seed = 9
	profile.CorruptionRate = 0 // clean corpus for truth comparison
	corpus := gen.Plan(profile)
	var jobs []*mosaic.Job
	corpus.Each(func(r gen.Run) bool {
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
		truth := gen.Truth(jobs[i])
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

func TestTraceBuilderFacade(t *testing.T) {
	arch, ok := mosaic.ArchetypeByName("checkpointer-minute")
	if !ok {
		t.Fatal("archetype lookup failed")
	}
	if arch.Exe == "" {
		t.Fatalf("archetype %q has no executable", arch.Name)
	}
	if _, ok := mosaic.ArchetypeByName("no-such-archetype"); ok {
		t.Fatal("unknown archetype found")
	}
}

func TestWriteTimelineFacade(t *testing.T) {
	job := &mosaic.Job{
		JobID: 2, User: "u", Exe: "/bin/b", NProcs: 4, Runtime: 1000, End: 1000,
		Records: []mosaic.FileRecord{{
			Module: mosaic.ModPOSIX, Path: "/f",
			C: mosaic.Counters{Writes: 5, BytesWritten: 1 << 30, WriteStart: 900, WriteEnd: 950},
		}},
	}
	res, err := mosaic.Categorize(job, mosaic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mosaic.WriteTimeline(&buf, job, res, mosaic.DefaultConfig())
	if !strings.Contains(buf.String(), "writes (merged)") {
		t.Fatal("timeline facade broken")
	}
}

func TestCategorizeAllContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []*mosaic.Job{{JobID: 1, User: "u", Exe: "/bin/c", NProcs: 1, Runtime: 10, End: 10}}
	if _, err := mosaic.CategorizeAll(ctx, jobs, mosaic.Options{}); err == nil {
		t.Fatal("cancelled context not surfaced")
	}
}

func buildFacadeCorpus(t *testing.T, n int) []*mosaic.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	jobs := make([]*mosaic.Job, 0, n)
	for i := 0; i < n; i++ {
		b := mosaic.NewTraceBuilder(rng, "user", fmt.Sprintf("/bin/app%d", i%4), uint64(i+1), 8, 3600)
		b.Burst(mosaic.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: 4})
		jobs = append(jobs, b.Job())
	}
	return jobs
}

func writeJobs(t *testing.T, dir string, jobs []*mosaic.Job) {
	t.Helper()
	for i, j := range jobs {
		if err := mosaic.WriteTrace(filepath.Join(dir, fmt.Sprintf("t%d.mosd", i)), j); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnalyzeJobsMatchesCorpus: the in-memory and the directory entry
// points run one engine, so the same traces give the same funnel and
// the same results in the same order. Ten traces keep the files' names
// (t0 … t9) in input order, so ties between equally heavy runs break the
// same way.
func TestAnalyzeJobsMatchesCorpus(t *testing.T) {
	jobs := buildFacadeCorpus(t, 10)
	dir := t.TempDir()
	writeJobs(t, dir, jobs)
	mem, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := mosaic.AnalyzeCorpusContext(context.Background(), dir, mosaic.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mem.Funnel, disk.Funnel) {
		t.Fatalf("funnels differ: %+v vs %+v", mem.Funnel, disk.Funnel)
	}
	if len(mem.Apps) != 4 || len(mem.Apps) != len(disk.Apps) {
		t.Fatalf("apps %d vs %d, want 4", len(mem.Apps), len(disk.Apps))
	}
	for i := range mem.Apps {
		m, d := mem.Apps[i], disk.Apps[i]
		if m.Runs != d.Runs || m.Result.JobID != d.Result.JobID || m.Result.Categories != d.Result.Categories {
			t.Fatalf("app %d: %d runs of job %d %v vs %d runs of job %d %v", i,
				m.Runs, m.Result.JobID, m.Result.Categories, d.Runs, d.Result.JobID, d.Result.Categories)
		}
	}
}

func TestAnalyzeCorpusContextCancelled(t *testing.T) {
	dir := t.TempDir()
	writeJobs(t, dir, buildFacadeCorpus(t, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mosaic.AnalyzeCorpusContext(ctx, dir, mosaic.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptionsPartialConfigNotDiscarded(t *testing.T) {
	// A config with only one threshold set must be honored (sane-clamped),
	// not silently replaced by DefaultConfig — the old zero-value
	// comparison got this right only by accident of comparability.
	jobs := buildFacadeCorpus(t, 4)
	cfg := mosaic.Config{SignificanceBytes: 1 << 50} // absurdly high: everything insignificant
	a, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range a.Apps {
		if app.Result.Read.Significant() || app.Result.Write.Significant() {
			t.Fatal("partial config was discarded: significance threshold ignored")
		}
	}
}
