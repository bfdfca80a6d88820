package store

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/explain"
)

// innerExec is an inner executor that counts its calls and fails every
// one of them when err is set.
type innerExec struct {
	engine.Local
	err   error
	calls atomic.Int64
}

func (e *innerExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	e.calls.Add(1)
	if e.err != nil {
		return nil, e.err
	}
	return e.Local.Categorize(ctx, j, cfg)
}

func (e *innerExec) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, opts explain.Options) (*core.Result, *explain.Explanation, error) {
	e.calls.Add(1)
	if e.err != nil {
		return nil, nil, e.err
	}
	return e.Local.CategorizeExplained(ctx, j, cfg, opts)
}

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCachingExecutorConcurrencyDelegates: the store adds no
// parallelism of its own; the engine sizes the stage by the inner
// executor.
func TestCachingExecutorConcurrencyDelegates(t *testing.T) {
	s := openTestStore(t)
	for _, w := range []int{0, 1, 7} {
		if got := NewCachingExecutor(s, engine.Local{Workers: w}).Concurrency(); got != w {
			t.Fatalf("Concurrency() = %d over Local{Workers: %d}", got, w)
		}
	}
}

// TestCachingExecutorExplainedInnerError: an inner failure on the
// explained path is returned as is and leaves nothing in the store, so
// the next call retries rather than serving a half-written record.
func TestCachingExecutorExplainedInnerError(t *testing.T) {
	s := openTestStore(t)
	boom := errors.New("inner down")
	inner := &innerExec{err: boom}
	exec := NewCachingExecutor(s, inner)
	exec.StoreTraces = true
	cfg, j := core.DefaultConfig(), testJob(11)
	res, expl, err := exec.CategorizeExplained(context.Background(), j, cfg, explain.Options{})
	if !errors.Is(err, boom) || res != nil || expl != nil {
		t.Fatalf("res=%v expl=%v err=%v, want the inner error", res, expl, err)
	}
	if exec.Hits() != 0 || exec.Misses() != 0 {
		t.Fatalf("failed call counted: hits=%d misses=%d", exec.Hits(), exec.Misses())
	}
	id, _, err := TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.GetResult(id, cfg.Fingerprint()); ok || s.HasExplanation(id, cfg.Fingerprint()) {
		t.Fatal("a failed categorization was persisted")
	}
	if st := s.Stats(); st.Traces != 0 {
		t.Fatalf("a failed categorization stored %d traces", st.Traces)
	}
	inner.err = nil
	if _, expl, err := exec.CategorizeExplained(context.Background(), j, cfg, explain.Options{}); err != nil || expl == nil {
		t.Fatalf("retry: expl=%v err=%v", expl, err)
	}
	if inner.calls.Load() != 2 || exec.Misses() != 1 {
		t.Fatalf("retry did not reach the inner executor: calls=%d misses=%d", inner.calls.Load(), exec.Misses())
	}
}

// TestCachingExecutorExplainedCancelled: a done context is answered
// before the store or the inner executor is touched.
func TestCachingExecutorExplainedCancelled(t *testing.T) {
	inner := &innerExec{}
	exec := NewCachingExecutor(openTestStore(t), inner)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, expl, err := exec.CategorizeExplained(ctx, testJob(12), core.DefaultConfig(), explain.Options{})
	if !errors.Is(err, context.Canceled) || res != nil || expl != nil {
		t.Fatalf("res=%v expl=%v err=%v, want context.Canceled", res, expl, err)
	}
	if inner.calls.Load() != 0 || exec.Misses() != 0 || exec.Hits() != 0 {
		t.Fatalf("cancelled call did work: inner calls=%d hits=%d misses=%d", inner.calls.Load(), exec.Hits(), exec.Misses())
	}
}

// TestCachingExecutorExplainedStoresTrace: with StoreTraces set, an
// explained miss persists the trace blob beside its result and
// explanation, as the plain path does.
func TestCachingExecutorExplainedStoresTrace(t *testing.T) {
	s := openTestStore(t)
	exec := NewCachingExecutor(s, engine.Local{Workers: 1})
	exec.StoreTraces = true
	j := testJob(13)
	if _, _, err := exec.CategorizeExplained(context.Background(), j, core.DefaultConfig(), explain.Options{}); err != nil {
		t.Fatal(err)
	}
	id, _, err := TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasTrace(id) {
		t.Fatal("trace not stored on an explained miss")
	}
	if back := storedJob(t, s, id); back.JobID != j.JobID {
		t.Fatalf("stored trace is job %d, want %d", back.JobID, j.JobID)
	}
}

func testExplained(t *testing.T, seed int) (*core.Result, *explain.Explanation) {
	t.Helper()
	res, expl, err := core.CategorizeExplained(testJob(seed), core.DefaultConfig(), explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, expl
}

func TestStoreExplanationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := testJob(3)
	id, _, err := TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	if s.HasExplanation(id, fp) {
		t.Fatal("explanation present before put")
	}
	if _, ok, err := s.GetExplanation(id, fp); err != nil || ok {
		t.Fatalf("get before put: ok=%v err=%v", ok, err)
	}
	_, expl := testExplained(t, 3)
	n, err := s.PutExplanation(id, fp, expl)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("PutExplanation size = %d, want > 0", n)
	}
	if !s.HasExplanation(id, fp) {
		t.Fatal("HasExplanation false after put")
	}
	back, ok, err := s.GetExplanation(id, fp)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if back.EvidenceCount() != expl.EvidenceCount() || len(back.Labels) != len(expl.Labels) {
		t.Fatal("explanation round trip lost evidence")
	}
	if st := s.Stats(); st.Explanations != 1 {
		t.Fatalf("Stats.Explanations = %d, want 1", st.Explanations)
	}
	// A different fingerprint is a different record.
	if s.HasExplanation(id, "cfg-other") {
		t.Fatal("explanation leaked across fingerprints")
	}
}

func TestStoreExplanationSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(5)
	id, _, err := TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	fp := core.DefaultConfig().Fingerprint()
	_, expl := testExplained(t, 5)
	if _, err := s.PutExplanation(id, fp, expl); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	back, ok, err := s2.GetExplanation(id, fp)
	if err != nil || !ok {
		t.Fatalf("explanation lost across reopen: ok=%v err=%v", ok, err)
	}
	if back.EvidenceCount() != expl.EvidenceCount() {
		t.Fatal("reopened explanation differs")
	}
	if st := s2.Stats(); st.Explanations != 1 {
		t.Fatalf("reopened Stats.Explanations = %d, want 1", st.Explanations)
	}
}

func TestCachingExecutorExplained(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exec := NewCachingExecutor(s, engine.Local{Workers: 2})
	cfg := core.DefaultConfig()
	j := testJob(7)
	ctx := context.Background()

	res1, expl1, err := exec.CategorizeExplained(ctx, j, cfg, explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if expl1 == nil || expl1.EvidenceCount() == 0 {
		t.Fatal("cold run returned no explanation")
	}
	if exec.Hits() != 0 || exec.Misses() != 1 {
		t.Fatalf("after cold run: hits=%d misses=%d", exec.Hits(), exec.Misses())
	}
	res2, expl2, err := exec.CategorizeExplained(ctx, j, cfg, explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Hits() != 1 || exec.Misses() != 1 {
		t.Fatalf("after warm run: hits=%d misses=%d", exec.Hits(), exec.Misses())
	}
	if !res1.Categories.Equal(res2.Categories) {
		t.Fatal("warm result categories differ")
	}
	if expl2.EvidenceCount() != expl1.EvidenceCount() {
		t.Fatal("warm explanation differs from cold one")
	}
}

// A result stored without an explanation (plain Categorize path, or a
// pre-explain corpus) is not a warm hit for the explained path: both
// are recomputed, only the missing explanation is written back, and
// the stored result stays authoritative.
func TestCachingExecutorBackfillsExplanation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exec := NewCachingExecutor(s, engine.Local{Workers: 2})
	cfg := core.DefaultConfig()
	j := testJob(9)
	ctx := context.Background()
	id, _, err := TraceKey(j)
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()

	// Plain path stores only the result.
	if _, err := exec.Categorize(ctx, j, cfg); err != nil {
		t.Fatal(err)
	}
	if s.HasExplanation(id, fp) {
		t.Fatal("plain path stored an explanation")
	}
	// Explained path misses (no explanation), recomputes, backfills.
	_, expl, err := exec.CategorizeExplained(ctx, j, cfg, explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if expl == nil {
		t.Fatal("backfill returned no explanation")
	}
	if exec.Misses() != 2 {
		t.Fatalf("explanation backfill should count as a miss: misses=%d", exec.Misses())
	}
	if !s.HasExplanation(id, fp) {
		t.Fatal("explanation not backfilled")
	}
	// Second explained call is now fully warm.
	if _, _, err := exec.CategorizeExplained(ctx, j, cfg, explain.Options{}); err != nil {
		t.Fatal(err)
	}
	if exec.Hits() != 1 {
		t.Fatalf("after backfill: hits=%d, want 1", exec.Hits())
	}
}
