package mosaic_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic"
)

func TestAnonymizeFacade(t *testing.T) {
	job := &mosaic.Job{
		JobID: 1, User: "alice", Exe: "/apps/bin/secret-code", NProcs: 4,
		Runtime: 100, End: 100,
		Metadata: map[string]string{"note": "private"},
		Records: []mosaic.FileRecord{{
			Module: mosaic.ModPOSIX, Path: "/scratch/alice/input.dat",
			C: mosaic.Counters{Reads: 1, BytesRead: 1 << 20, ReadStart: 1, ReadEnd: 2},
		}},
	}
	mosaic.Anonymize(job, "salt")
	if job.User == "alice" || strings.Contains(job.Exe, "secret") {
		t.Fatal("identity leaked")
	}
	if job.Metadata != nil {
		t.Fatal("metadata kept")
	}
	if strings.Contains(job.Records[0].Path, "input") {
		t.Fatal("path leaked")
	}
	if err := mosaic.Validate(job); err != nil {
		t.Fatalf("anonymized job invalid: %v", err)
	}
}

func TestWriteHeatmapFacade(t *testing.T) {
	agg := mosaic.NewAggregator()
	res := mosaic.MustCategorize(&mosaic.Job{
		JobID: 1, User: "u", Exe: "/bin/a", NProcs: 4, Runtime: 1000, End: 1000,
		Records: []mosaic.FileRecord{{
			Module: mosaic.ModPOSIX, Path: "/f",
			C: mosaic.Counters{Reads: 10, BytesRead: 1 << 30, ReadStart: 5, ReadEnd: 50},
		}},
	}, mosaic.DefaultConfig())
	agg.Add(res, 3)
	var buf bytes.Buffer
	mosaic.WriteHeatmap(&buf, agg, 0)
	if !strings.Contains(buf.String(), "read_on_start") {
		t.Fatalf("heatmap missing category:\n%s", buf.String())
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
	res := mosaic.MustCategorize(job, mosaic.DefaultConfig())
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

func TestMustCategorizePanicsOnPipelineFailure(t *testing.T) {
	// MustCategorize never panics on structurally valid jobs; exercise the
	// non-panic path and the ListCorpus facade together.
	dir := t.TempDir()
	if paths, err := mosaic.ListCorpus(dir); err != nil || len(paths) != 0 {
		t.Fatalf("empty corpus: %v %v", paths, err)
	}
}

func TestAllCategoriesFacade(t *testing.T) {
	all := mosaic.AllCategories()
	if len(all) != 32 {
		t.Fatalf("taxonomy size = %d, want 32", len(all))
	}
	if mosaic.PeriodicMagnitudeCat(mosaic.DirWrite, 2) == "" {
		t.Fatal("magnitude constructor broken")
	}
}

func TestTruthFacade(t *testing.T) {
	profile := mosaic.DefaultCorpusProfile()
	profile.Apps = 5
	profile.CorruptionRate = 0
	corpus := mosaic.PlanCorpus(profile)
	run := corpus.GenerateRun(corpus.Apps[0], 0)
	if mosaic.Truth(run.Job) == 0 {
		t.Fatal("truth missing on generated trace")
	}
	if run.Job.Metadata[mosaic.TruthKey] == "" {
		t.Fatal("truth key missing")
	}
}

func buildFacadeCorpus(t *testing.T, n int) []*mosaic.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	jobs := make([]*mosaic.Job, 0, n)
	for i := 0; i < n; i++ {
		b := mosaic.NewTraceBuilder(rng, "user", "/bin/app", uint64(i+1), 8, 3600)
		b.Burst(mosaic.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: 4})
		jobs = append(jobs, b.Job())
	}
	return jobs
}

func TestAnalyzeJobsShimMatchesContextAPI(t *testing.T) {
	jobs := buildFacadeCorpus(t, 20)
	a1, err := mosaic.AnalyzeJobs(jobs, mosaic.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := mosaic.AnalyzeJobsContext(context.Background(), jobs, mosaic.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Funnel.Total != a2.Funnel.Total || a1.Funnel.UniqueApps != a2.Funnel.UniqueApps {
		t.Fatalf("shim and context API disagree: %+v vs %+v", a1.Funnel, a2.Funnel)
	}
	if len(a1.Apps) != len(a2.Apps) {
		t.Fatalf("apps %d vs %d", len(a1.Apps), len(a2.Apps))
	}
}

func TestAnalyzeCorpusContextCancelled(t *testing.T) {
	dir := t.TempDir()
	for i, j := range buildFacadeCorpus(t, 5) {
		if err := mosaic.WriteTrace(filepath.Join(dir, fmt.Sprintf("t%d.mosd", i)), j); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mosaic.AnalyzeCorpusContext(ctx, dir, mosaic.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeCorpusContextObserver(t *testing.T) {
	dir := t.TempDir()
	for i, j := range buildFacadeCorpus(t, 6) {
		if err := mosaic.WriteTrace(filepath.Join(dir, fmt.Sprintf("t%d.mosd", i)), j); err != nil {
			t.Fatal(err)
		}
	}
	stats := mosaic.NewStageStats()
	a, err := mosaic.AnalyzeCorpusContext(context.Background(), dir, mosaic.Options{Observer: stats})
	if err != nil {
		t.Fatal(err)
	}
	if a.Funnel.Total != 6 {
		t.Fatalf("funnel total = %d, want 6", a.Funnel.Total)
	}
	if got := stats.Stage(mosaic.StageDecode).Out; got != 6 {
		t.Fatalf("decode out = %d, want 6", got)
	}
	if got := stats.Stage(mosaic.StageCategorize).Out; got != int64(len(a.Apps)) {
		t.Fatalf("categorize out = %d, want %d", got, len(a.Apps))
	}
}

func TestOptionsPartialConfigNotDiscarded(t *testing.T) {
	// A config with only one threshold set must be honored (sane-clamped),
	// not silently replaced by DefaultConfig — the old zero-value
	// comparison got this right only by accident of comparability.
	jobs := buildFacadeCorpus(t, 4)
	cfg := mosaic.Config{SignificanceBytes: 1 << 50} // absurdly high: everything insignificant
	a, err := mosaic.AnalyzeJobs(jobs, mosaic.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range a.Apps {
		if app.Result.Read.Significant() || app.Result.Write.Significant() {
			t.Fatal("partial config was discarded: significance threshold ignored")
		}
	}
}

func TestQueryIndexFacade(t *testing.T) {
	ix := mosaic.NewIndex()
	var end, start mosaic.Set
	end.Add("write_on_end")
	start.Add("read_on_start")
	ix.Load([]mosaic.IndexEntry{
		{ID: mosaic.TraceID(strings.Repeat("a", 64)), Cats: end},
		{ID: mosaic.TraceID(strings.Repeat("b", 64)), Cats: start},
	})
	if err := mosaic.ParseQuery("write_on_end AND ("); err == nil {
		t.Fatal("unbalanced query accepted")
	}
	ids, err := ix.Query("write_on_end NOT read_on_start")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != mosaic.TraceID(strings.Repeat("a", 64)) {
		t.Fatalf("query = %v", ids)
	}
	merged := mosaic.MergeSorted([]string{"a", "c"}, []string{"b", "c"})
	if strings.Join(merged, "") != "abc" {
		t.Fatalf("merge = %v", merged)
	}
}
