package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// genRuns returns the runs of a small generated corpus, corrupted ones
// included.
func genRuns(t *testing.T) []gen.Run {
	t.Helper()
	p := gen.DefaultProfile()
	p.Apps, p.Seed, p.MaxRunsPerApp = 10, 5, 3
	var runs []gen.Run
	gen.Plan(p).Each(func(r gen.Run) bool {
		runs = append(runs, r)
		return true
	})
	if len(runs) < p.Apps {
		t.Fatalf("the corpus has %d runs for %d apps", len(runs), p.Apps)
	}
	return runs
}

// genJobs returns the first run of each of n generated applications.
func genJobs(t *testing.T, n int) []*darshan.Job {
	t.Helper()
	var jobs []*darshan.Job
	seen := make(map[*gen.App]bool)
	for _, r := range genRuns(t) {
		if !r.Corrupted && !seen[r.App] && len(jobs) < n {
			seen[r.App] = true
			jobs = append(jobs, r.Job)
		}
	}
	if len(jobs) < n {
		t.Fatalf("the corpus has %d clean applications, want %d", len(jobs), n)
	}
	return jobs
}

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func wantHitsMisses(t *testing.T, st *store.Store, hits, misses int64) {
	t.Helper()
	if s := st.Stats(); s.Hits != hits || s.Misses != misses {
		t.Fatalf("hits=%d misses=%d, want %d/%d", s.Hits, s.Misses, hits, misses)
	}
}

// TestWarmExecConcurrencyDelegates: the store adds no parallelism of its
// own; the engine sizes the stage by Local's workers.
func TestWarmExecConcurrencyDelegates(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	for _, w := range []int{0, 1, 7} {
		if got := (warmExec{Local: engine.Local{Workers: w}, st: st}).Concurrency(); got != w {
			t.Fatalf("Concurrency() = %d over Local{Workers: %d}", got, w)
		}
	}
}

// TestWarmExec: a cold call categorizes and stores, a warm one reads the
// same result back — and serves what the store holds, not a fresh
// categorization — and another configuration misses.
func TestWarmExec(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	exec := warmExec{Local: engine.Local{Workers: 2}, st: st}
	cfg, j := core.DefaultConfig(), genJobs(t, 1)[0]
	ctx := context.Background()

	cold, err := exec.Categorize(ctx, j, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantHitsMisses(t, st, 0, 1)
	if s := st.Stats(); s.Results != 1 || s.Traces != 0 {
		t.Fatalf("a cold call stored %d results and %d traces, want 1 and 0", s.Results, s.Traces)
	}
	warm, err := exec.Categorize(ctx, j, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantHitsMisses(t, st, 1, 1)
	if !cold.Categories.Equal(warm.Categories) || !slices.Equal(cold.Labels, warm.Labels) {
		t.Fatalf("warm labels %v, cold %v", warm.Labels, cold.Labels)
	}
	id, _, err := store.TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	planted := *warm
	planted.Labels = append(slices.Clone(warm.Labels), "site_custom_label")
	if err := st.PutResult(id, cfg.Fingerprint(), &planted); err != nil {
		t.Fatal(err)
	}
	if got, err := exec.Categorize(ctx, j, cfg); err != nil || !slices.Equal(got.Labels, planted.Labels) {
		t.Fatalf("labels %v (%v), want the stored %v", got.Labels, err, planted.Labels)
	}
	wantHitsMisses(t, st, 2, 1)
	other := core.DefaultConfig()
	other.SignificanceBytes = 1 << 20
	if _, err := exec.Categorize(ctx, j, other); err != nil {
		t.Fatal(err)
	}
	wantHitsMisses(t, st, 2, 2)
}

// TestWarmExecCancelled: a done context is answered before the store or
// the categorizer is touched.
func TestWarmExecCancelled(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := warmExec{st: st}.Categorize(ctx, genJobs(t, 1)[0], core.DefaultConfig())
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v, want context.Canceled", res, err)
	}
	wantHitsMisses(t, st, 0, 0)
	if s := st.Stats(); s.Results != 0 {
		t.Fatalf("a cancelled call stored %d results", s.Results)
	}
}

// TestWarmExecWriteFails: a result that cannot be stored fails the
// trace, so the next run is not silently cold.
func TestWarmExecWriteFails(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	res, err := warmExec{st: st}.Categorize(context.Background(), genJobs(t, 1)[0], core.DefaultConfig())
	if err == nil || res != nil {
		t.Fatalf("res=%v err=%v, want the write's error", res, err)
	}
}

func runWarm(t *testing.T, st *store.Store, jobs []*darshan.Job, cfg core.Config, explained bool) *engine.Result {
	t.Helper()
	res, err := engine.Run(context.Background(), engine.Jobs(jobs), engine.Options{
		Config:   cfg,
		Workers:  2,
		Executor: warmExec{Local: engine.Local{Workers: 2}, st: st},
		Explain:  explained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != len(jobs) {
		t.Fatalf("categorized %d apps, want %d", len(res.Apps), len(jobs))
	}
	return res
}

func labelsOf(r *engine.Result) string {
	out := make([]string, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = fmt.Sprint(a.App, a.Result.Labels)
	}
	return strings.Join(out, "\n")
}

// TestWarmRunFromStore: through engine.Run, the first run fills the
// store, the second is served from it entirely with the same labels, and
// a reopened store still serves every result.
func TestWarmRunFromStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs, cfg := genJobs(t, 4), core.DefaultConfig()
	cold := runWarm(t, st, jobs, cfg, false)
	wantHitsMisses(t, st, 0, 4)
	warm := runWarm(t, st, jobs, cfg, false)
	wantHitsMisses(t, st, 4, 4)
	if got, want := labelsOf(warm), labelsOf(cold); got != want {
		t.Fatalf("warm labels\n%s\ncold\n%s", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openTestStore(t, dir)
	reopened := runWarm(t, st, jobs, cfg, false)
	wantHitsMisses(t, st, 4, 0)
	if got, want := labelsOf(reopened), labelsOf(cold); got != want {
		t.Fatalf("reopened labels\n%s\ncold\n%s", got, want)
	}
}

// TestWarmRunFingerprintIsolation: results stored under one threshold
// set are not served to a run with other thresholds.
func TestWarmRunFingerprintIsolation(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	jobs := genJobs(t, 2)
	runWarm(t, st, jobs, core.DefaultConfig(), false)
	cfg := core.DefaultConfig()
	cfg.SignificanceBytes = 1 << 20
	runWarm(t, st, jobs, cfg, false)
	wantHitsMisses(t, st, 0, 4)
}

// TestWarmRunExplainedIsLocal: an explained run is Local's own — it
// neither reads nor writes the store — and its results are those a
// plain warm run serves.
func TestWarmRunExplainedIsLocal(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	jobs := genJobs(t, 2)
	explained := runWarm(t, st, jobs, core.DefaultConfig(), true)
	wantHitsMisses(t, st, 0, 0)
	if s := st.Stats(); s.Results != 0 || s.RecoveredFrames != 0 || s.DiskBytes != 0 {
		t.Fatalf("an explained run wrote to the store: %+v", s)
	}
	for i, a := range explained.Apps {
		if a.Explanation == nil || a.Explanation.EvidenceCount() == 0 {
			t.Fatalf("app %d: no explanation", i)
		}
	}
	runWarm(t, st, jobs, core.DefaultConfig(), false) // cold: fills the store
	warm := runWarm(t, st, jobs, core.DefaultConfig(), false)
	wantHitsMisses(t, st, 2, 2)
	if got, want := labelsOf(warm), labelsOf(explained); got != want {
		t.Fatalf("warm labels\n%s\nexplained\n%s", got, want)
	}
}

// writeGenCorpus writes the runs of genRuns as .mosd files into a new
// directory and returns it.
func writeGenCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, r := range genRuns(t) {
		name := fmt.Sprintf("%s_%s_id%d_%d%s", r.Job.User, r.App.Archetype.Name, r.Job.JobID, r.RunIndex, darshan.ExtBinary)
		if err := darshan.WriteFile(filepath.Join(dir, name), r.Job); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// corpusRun runs `mosaic -json` over corpus and returns the report, the
// -json file and stderr.
func corpusRun(t *testing.T, corpus string, cfg core.Config, workers int, co corpusOpts) (report, js, stderr []byte) {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "out.json")
	stderr = captured(t, &os.Stderr, func() {
		report = captured(t, &os.Stdout, func() {
			if err := run(context.Background(), corpus, cfg, workers, singleOpts{}, jsonPath, false, "", "", co); err != nil {
				t.Fatal(err)
			}
		})
	})
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	return report, js, stderr
}

// storeLine is what a -store run prints on stderr.
func storeLine(dir string, warm, cold int, cfg core.Config) string {
	return fmt.Sprintf("store %s: %d results served warm, %d categorized cold (fingerprint %s)\n", dir, warm, cold, cfg.Fingerprint())
}

// resultCount counts the results of a -json document.
func resultCount(t *testing.T, js []byte) int {
	t.Helper()
	n := bytes.Count(js, []byte("\n  {\n"))
	if n == 0 {
		t.Fatalf("no results in the -json output:\n%s", js)
	}
	return n
}

// TestRunCorpusWarmStore: `mosaic -store DIR -json out CORPUS` run twice
// writes, cold and warm, the report and -json bytes a run without -store
// writes, and the second run reports every result served warm — at one
// worker and at several sharing the store.
func TestRunCorpusWarmStore(t *testing.T) {
	corpus, cfg := writeGenCorpus(t), mosaic.DefaultConfig()
	wantReport, wantJSON, _ := corpusRun(t, corpus, cfg, 2, corpusOpts{})
	n := resultCount(t, wantJSON)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			storeDir := filepath.Join(t.TempDir(), "store")
			for lap, want := range []string{storeLine(storeDir, 0, n, cfg), storeLine(storeDir, n, 0, cfg)} {
				report, js, stderr := corpusRun(t, corpus, cfg, workers, corpusOpts{storeDir: storeDir})
				if !bytes.Equal(report, wantReport) {
					t.Errorf("lap %d: the report differs from a run without -store:\n%s\nwant\n%s", lap, report, wantReport)
				}
				if !bytes.Equal(js, wantJSON) {
					t.Errorf("lap %d: -json differs from a run without -store", lap)
				}
				if string(stderr) != want {
					t.Errorf("lap %d: stderr = %q, want %q", lap, stderr, want)
				}
			}
		})
	}
}

// TestRunCorpusWarmStoreOtherThresholds: one store serves two threshold
// sets side by side. A run under new thresholds is cold and writes what a
// run without -store writes under them; the old thresholds stay warm.
func TestRunCorpusWarmStoreOtherThresholds(t *testing.T) {
	corpus, storeDir := writeGenCorpus(t), filepath.Join(t.TempDir(), "store")
	def, other := mosaic.DefaultConfig(), mosaic.DefaultConfig()
	other.SignificanceBytes = 1 << 20
	_, defJSON, _ := corpusRun(t, corpus, def, 2, corpusOpts{})
	_, otherJSON, _ := corpusRun(t, corpus, other, 2, corpusOpts{})
	if bytes.Equal(defJSON, otherJSON) {
		t.Fatal("the two threshold sets categorize the corpus alike; the test needs them apart")
	}
	n := resultCount(t, defJSON)
	for _, c := range []struct {
		cfg        core.Config
		want       []byte
		warm, cold int
	}{{def, defJSON, 0, n}, {other, otherJSON, 0, n}, {def, defJSON, n, 0}, {other, otherJSON, n, 0}} {
		_, js, stderr := corpusRun(t, corpus, c.cfg, 2, corpusOpts{storeDir: storeDir})
		if !bytes.Equal(js, c.want) {
			t.Errorf("%s: -json differs from a run without -store", c.cfg.Fingerprint())
		}
		if want := storeLine(storeDir, c.warm, c.cold, c.cfg); string(stderr) != want {
			t.Errorf("stderr = %q, want %q", stderr, want)
		}
	}
}
