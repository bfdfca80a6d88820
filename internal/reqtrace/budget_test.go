package reqtrace

import (
	"runtime"
	"testing"
	"time"
)

// TestBudgetSplitsTheRoot builds a trace whose spans nest, overlap,
// repeat a kind and outlive the root, and checks each name's self-time
// against the sweep worked out by hand.
func TestBudgetSplitsTheRoot(t *testing.T) {
	ms := time.Millisecond
	start := time.Now().Add(-10 * ms)
	tr := New(StartOptions{Method: "POST", Route: "/v1/traces:batch", Start: start})
	at := func(off time.Duration) time.Time { return start.Add(off) }
	a := tr.AddCompleted(tr.Root(), "a", at(0), 4*ms)
	tr.AddCompleted(a, "c", at(1*ms), 1*ms)              // under a: a's own time shrinks
	tr.AddCompleted(tr.Root(), "b", at(2*ms), 4*ms)      // beside a from 2 to 4 ms: they split it
	tr.AddCompleted(tr.Root(), "item:x", at(7*ms), 1*ms) // two instances, one row
	tr.AddCompleted(tr.Root(), "item:y", at(8*ms), 1*ms)
	tr.AddCompleted(tr.Root(), "early", start.Add(-5*ms), 6*ms) // clipped to the root's start
	tr.Hold()
	tr.FinishRoot(202)
	tr.AddCompleted(tr.Root(), "late", at(9*ms), time.Hour) // mostly after the root
	tr.Release()

	var rootDur time.Duration
	for _, s := range tr.Spans() {
		if s.ID == tr.Root() {
			rootDur = s.Dur
		}
	}
	in, after := map[string]time.Duration{}, map[string]time.Duration{}
	tr.Budget(func(name string, isAfter bool, self time.Duration) {
		m := in
		if isAfter {
			m = after
		}
		if _, dup := m[name]; dup {
			t.Errorf("%s (after=%v) reported twice", name, isAfter)
		}
		m[name] = self
	})
	// 0–1 ms: a and early; 1–2: c; 2–4: a and b; 4–6: b; 7–9: items;
	// 9 ms to the root's end: late; no span from 6 to 7 ms.
	near := func(got, want time.Duration) bool { return got-want < 10 && want-got < 10 }
	rootRest := rootDur - 9*ms
	for name, want := range map[string]time.Duration{
		"a": ms/2 + ms, "early": ms / 2, "c": ms, "b": ms + 2*ms, "item:": 2 * ms, "late": rootRest, Unattributed: ms,
	} {
		if got, ok := in[name]; !ok || !near(got, want) {
			t.Errorf("in-root %s = %v (reported %v), want %v", name, got, ok, want)
		}
	}
	if len(in) != 7 {
		t.Errorf("in-root names %v, want 7", in)
	}
	if len(after) != 1 || !near(after["late"], 9*ms+time.Hour-rootDur) {
		t.Errorf("after the root: %v, want late for %v", after, 9*ms+time.Hour-rootDur)
	}
	var sum time.Duration
	for _, d := range in {
		sum += d
	}
	if !near(sum, rootDur) {
		t.Errorf("in-root self-times add up to %v, the root took %v", sum, rootDur)
	}
}

// TestBudgetOfALeafRoot: a root alone is all unattributed, and a trace
// without a finished root reports nothing.
func TestBudgetOfALeafRoot(t *testing.T) {
	tr := New(StartOptions{Method: "GET", Route: "/healthz", Start: time.Now().Add(-time.Millisecond)})
	calls := 0
	tr.Budget(func(string, bool, time.Duration) { calls++ })
	if calls != 0 {
		t.Fatalf("an unfinished trace reported %d rows", calls)
	}
	tr.FinishRoot(200)
	tr.Budget(func(name string, after bool, self time.Duration) {
		calls++
		if name != Unattributed || after || self < time.Millisecond {
			t.Errorf("leaf root reported %s after=%v %v", name, after, self)
		}
	})
	if calls != 1 {
		t.Fatalf("leaf root reported %d rows, want 1", calls)
	}
}

// TestBudgetAllocatesNothing: the budget runs as every traced request
// finishes. The least of several runs counts, as sync.Pool drops puts
// under -race.
func TestBudgetAllocatesNothing(t *testing.T) {
	start := time.Now().Add(-time.Millisecond)
	tr := New(StartOptions{Method: "POST", Route: "/v1/traces", Start: start})
	tr.AddCompleted(tr.Root(), "ingest.read", start, 100*time.Microsecond)
	tr.AddCompleted(tr.Root(), "ingest.decode", start.Add(100*time.Microsecond), 300*time.Microsecond)
	tr.AddCompleted(tr.Root(), "store.commit", start.Add(400*time.Microsecond), 200*time.Microsecond)
	tr.FinishRoot(200)
	var total time.Duration
	fn := func(_ string, _ bool, d time.Duration) { total += d }
	least := ^uint64(0)
	for run := 0; run < 20; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.Budget(fn)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Fatalf("Budget allocates %d times per trace", least)
	}
}
