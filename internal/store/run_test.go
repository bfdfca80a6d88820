package store

import (
	"context"
	"fmt"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
)

// The tests below run whole corpora through engine.Run with a
// CachingExecutor, the wiring `mosaic -store` uses: the unit tests of
// the executor call it one trace at a time.

// runJobs builds n distinct applications of one run each.
func runJobs(n int) []*darshan.Job {
	jobs := make([]*darshan.Job, n)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	return jobs
}

func runCached(t *testing.T, s *Store, jobs []*darshan.Job, cfg core.Config, explained bool) *engine.Result {
	t.Helper()
	res, err := engine.Run(context.Background(), engine.Jobs(jobs), engine.Options{
		Config:   cfg,
		Workers:  2,
		Executor: NewCachingExecutor(s, engine.Local{Workers: 2}),
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

func wantHitsMisses(t *testing.T, s *Store, hits, misses int64) {
	t.Helper()
	if st := s.Stats(); st.Hits != hits || st.Misses != misses {
		t.Fatalf("hits=%d misses=%d, want %d/%d", st.Hits, st.Misses, hits, misses)
	}
}

func labelsOf(r *engine.Result) []string {
	out := make([]string, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = fmt.Sprint(a.App, a.Result.Labels)
	}
	return out
}

// TestRunWarmStartsFromStore: the first run fills the store, the second
// is served from it entirely with the same labels, and a reopened store
// still serves every result.
func TestRunWarmStartsFromStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := runJobs(4)
	cfg := core.DefaultConfig()

	cold := runCached(t, s, jobs, cfg, false)
	wantHitsMisses(t, s, 0, 4)
	warm := runCached(t, s, jobs, cfg, false)
	wantHitsMisses(t, s, 4, 4)
	if got, want := labelsOf(warm), labelsOf(cold); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("warm labels %v, cold %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	reopened := runCached(t, s2, jobs, cfg, false)
	wantHitsMisses(t, s2, 4, 0)
	if got, want := labelsOf(reopened), labelsOf(cold); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened labels %v, cold %v", got, want)
	}
}

// TestRunStoreFingerprintIsolation: results stored under one threshold
// set are not served to a run with other thresholds.
func TestRunStoreFingerprintIsolation(t *testing.T) {
	s := openTestStore(t)
	jobs := runJobs(2)
	runCached(t, s, jobs, core.DefaultConfig(), false)
	cfg := core.DefaultConfig()
	cfg.SignificanceBytes = 1 << 20
	runCached(t, s, jobs, cfg, false)
	wantHitsMisses(t, s, 0, 4)
}

// TestRunExplainedWarmFromStore: an explained run stores one
// explanation per application, and the warm run hands the same
// explanations back without categorizing again.
func TestRunExplainedWarmFromStore(t *testing.T) {
	s := openTestStore(t)
	jobs := runJobs(2)
	cold := runCached(t, s, jobs, core.DefaultConfig(), true)
	if n := s.Stats().Explanations; n != 2 {
		t.Fatalf("explanations stored = %d, want 2", n)
	}
	warm := runCached(t, s, jobs, core.DefaultConfig(), true)
	wantHitsMisses(t, s, 2, 2)
	for i := range warm.Apps {
		w, c := warm.Apps[i].Explanation, cold.Apps[i].Explanation
		if w == nil || c == nil {
			t.Fatalf("app %d: explanation warm=%v cold=%v", i, w != nil, c != nil)
		}
		if w.EvidenceCount() != c.EvidenceCount() {
			t.Fatalf("app %d: warm explanation has %d evidence items, cold %d", i, w.EvidenceCount(), c.EvidenceCount())
		}
	}
}
