package reqtrace

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tid, sid, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid header rejected: %s", valid)
	}
	if tid.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id = %s", tid)
	}
	if sid.String() != "b7ad6b7169203331" {
		t.Fatalf("span id = %s", sid)
	}
	// Future versions may append dash-separated fields.
	if _, _, ok := ParseTraceparent(valid + "-extra"); !ok {
		t.Fatal("future-version suffix rejected")
	}

	invalid := []string{
		"",
		"00",
		"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",         // bad version hex
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",         // reserved version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",         // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",         // zero span id
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",         // bad trace hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333X-01",         // bad span hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0X",         // bad flags hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01X",        // junk without separator
		"000-af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",         // misplaced dashes
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",            // missing flags
		"00-0af7651916cd43dd8448eb211c80319cb7ad6b7169203331-0123456-011", // wrong layout, right length
	}
	for _, h := range invalid {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("invalid header accepted: %q", h)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	tr := New(StartOptions{Method: "GET", Route: "/x"})
	h := tr.Traceparent()
	tid, sid, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent does not parse: %s", h)
	}
	if tid != tr.ID() || sid != tr.Root() {
		t.Fatalf("round trip mismatch: %s", h)
	}
}

func TestTraceAdoptsIncomingTraceparent(t *testing.T) {
	in := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tr := New(StartOptions{Traceparent: in, Method: "POST", Route: "/v1/traces"})
	if tr.ID().String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("did not adopt incoming trace id: %s", tr.ID())
	}
	tr.FinishRoot(200)
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Parent.String() != "b7ad6b7169203331" {
		t.Fatalf("root parent should be the remote span, got %s", spans[0].Parent)
	}

	fresh := New(StartOptions{Traceparent: "garbage"})
	if fresh.ID().IsZero() {
		t.Fatal("fresh trace has zero id")
	}
	if fresh.ID() == tr.ID() {
		t.Fatal("fresh trace reused adopted id")
	}
}

func TestUniqueIDs(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := newTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id after %d draws", i)
		}
		seen[id] = true
	}
}

// TestIDsUniqueAcrossGoroutines starts traces from 8 goroutines at once,
// the first of them racing to draw the ID seed: every trace ID and every
// span ID is distinct, and none is the all-zero ID W3C trace context
// treats as invalid. Run it with -race.
func TestIDsUniqueAcrossGoroutines(t *testing.T) {
	const goroutines, perG = 8, 500
	type ids struct {
		traces []TraceID
		spans  []SpanID
	}
	got := make([]ids, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(out *ids) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr := New(StartOptions{Method: "GET", Route: "/x"})
				child := tr.AddCompleted(tr.Root(), "child", time.Now(), time.Microsecond)
				out.traces = append(out.traces, tr.ID())
				out.spans = append(out.spans, tr.Root(), child)
				tr.FinishRoot(200)
			}
		}(&got[g])
	}
	wg.Wait()

	traces := make(map[TraceID]bool, goroutines*perG)
	spans := make(map[SpanID]bool, 2*goroutines*perG)
	for _, g := range got {
		for _, id := range g.traces {
			if id.IsZero() || traces[id] {
				t.Fatalf("trace id %s is zero or repeated", id)
			}
			traces[id] = true
		}
		for _, id := range g.spans {
			if id.IsZero() || spans[id] {
				t.Fatalf("span id %s is zero or repeated", id)
			}
			spans[id] = true
		}
	}
	if binary.BigEndian.Uint64(seed()[:8]) == 0 {
		t.Fatal("the seed's high half is zero: a trace ID could be all-zero")
	}
}

func TestRefcountFinalizesOnce(t *testing.T) {
	var mu sync.Mutex
	done := 0
	tr := New(StartOptions{Method: "POST", Route: "/v1/traces", OnDone: func(*Trace) {
		mu.Lock()
		done++
		mu.Unlock()
	}})
	tr.Hold() // async work queued
	tr.FinishRoot(202)
	mu.Lock()
	if done != 0 {
		mu.Unlock()
		t.Fatal("finalized while async work still held a reference")
	}
	mu.Unlock()
	tr.Release()
	mu.Lock()
	defer mu.Unlock()
	if done != 1 {
		t.Fatalf("OnDone ran %d times, want 1", done)
	}
}

func TestRefcountManyHoldersRace(t *testing.T) {
	var calls int
	tr := New(StartOptions{OnDone: func(*Trace) { calls++ }})
	const holders = 32
	for i := 0; i < holders; i++ {
		tr.Hold()
	}
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.AddCompleted(tr.Root(), "work", time.Now(), time.Millisecond)
			tr.Release()
		}()
	}
	tr.FinishRoot(202)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("OnDone ran %d times, want 1", calls)
	}
	if got := len(tr.Spans()); got != holders+1 {
		t.Fatalf("spans = %d, want %d", got, holders+1)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(StartOptions{Method: "POST", Route: "/v1/traces"})
	ctx := NewContext(context.Background(), tr)

	got, parent, ok := FromContext(ctx)
	if !ok || got != tr || parent != tr.Root() {
		t.Fatal("FromContext did not return the trace rooted at the root span")
	}

	ctx2, sp := StartSpan(ctx, "store.commit", Str("kind", "traces"))
	if sp == nil {
		t.Fatal("traced context returned nil span")
	}
	_, parent2, _ := FromContext(ctx2)
	if parent2 != sp.ID() {
		t.Fatal("child context's parent is not the new span")
	}
	sp.SetAttr(Int("records", 3))
	sp.End()

	AddSpan(ctx2, "index.update", time.Now(), time.Millisecond)
	tr.FinishRoot(200)

	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	if byName["store.commit"].Parent != tr.Root() {
		t.Fatal("store.commit should parent off the root")
	}
	if byName["index.update"].Parent != byName["store.commit"].ID {
		t.Fatal("index.update should parent off store.commit")
	}
	var kind, records string
	for _, a := range byName["store.commit"].Attrs {
		switch a.Key {
		case "kind":
			kind = a.Value
		case "records":
			records = a.Value
		}
	}
	if kind != "traces" || records != "3" {
		t.Fatalf("attrs lost: kind=%q records=%q", kind, records)
	}
}

func TestUntracedContextIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "x")
	if ctx2 != ctx {
		t.Fatal("untraced StartSpan should return ctx unchanged")
	}
	if sp != nil {
		t.Fatal("untraced StartSpan should return a nil span")
	}
	// All nil-receiver methods must be safe no-ops.
	sp.SetAttr(Str("k", "v"))
	sp.SetError(errors.New("boom"))
	if !sp.ID().IsZero() {
		t.Fatal("nil span has a non-zero id")
	}
	sp.End()
	AddSpan(ctx, "y", time.Now(), time.Second)
	if _, _, ok := FromContext(ctx); ok {
		t.Fatal("background context claims a trace")
	}
}

func TestMaxSpansDropped(t *testing.T) {
	tr := New(StartOptions{})
	for i := 0; i < maxSpans+10; i++ {
		tr.AddCompleted(tr.Root(), "s", time.Now(), time.Microsecond)
	}
	tr.FinishRoot(200)
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("spans = %d, want cap %d", got, maxSpans)
	}
	// maxSpans AddCompleted kept, 10 dropped, plus the root dropped too.
	if got := tr.Dropped(); got != 11 {
		t.Fatalf("dropped = %d, want 11", got)
	}

	// The one trace that is not a request's lifts the cap, and spans
	// past the inline arena keep their own attributes.
	run := New(StartOptions{Unbounded: true})
	for i := 0; i < maxSpans+10; i++ {
		run.AddCompleted(run.Root(), "s", time.Now(), time.Microsecond, Int("i", int64(i)))
	}
	spans := run.Spans()
	if len(spans) != maxSpans+10 || run.Dropped() != 0 {
		t.Fatalf("unbounded trace kept %d spans and dropped %d, want %d and 0", len(spans), run.Dropped(), maxSpans+10)
	}
	for i, sp := range spans {
		if len(sp.Attrs) != 1 || sp.Attrs[0] != Int("i", int64(i)) {
			t.Fatalf("span %d attrs = %v", i, sp.Attrs)
		}
	}
}

func TestErroredAndDuration(t *testing.T) {
	tr := New(StartOptions{Method: "POST", Route: "/v1/traces"})
	if tr.Errored() {
		t.Fatal("new trace already errored")
	}
	tr.FinishRoot(500)
	if !tr.Errored() {
		t.Fatal("5xx status should mark the trace errored")
	}

	tr2 := New(StartOptions{})
	tr2.SetError("first")
	tr2.SetError("second")
	if tr2.Err() != "first" {
		t.Fatalf("SetError should keep the first message, got %q", tr2.Err())
	}
	if !tr2.Errored() {
		t.Fatal("explicit SetError should mark the trace errored")
	}

	// Envelope duration extends past the root when async spans land later.
	start := time.Now().Add(-time.Second)
	tr3 := New(StartOptions{Start: start})
	tr3.FinishRoot(202)
	rootDur := tr3.Duration()
	tr3.AddCompleted(tr3.Root(), "late", start.Add(2*time.Second), time.Second)
	if tr3.Duration() <= rootDur {
		t.Fatal("async span did not extend the envelope")
	}
	if tr3.Duration() != 3*time.Second {
		t.Fatalf("envelope = %v, want 3s", tr3.Duration())
	}
}

func TestFinishRootName(t *testing.T) {
	tr := New(StartOptions{Method: "POST", Route: "/v1/traces"})
	tr.FinishRoot(200)
	if n := tr.Spans()[0].Name; n != "POST /v1/traces" {
		t.Fatalf("root name = %q", n)
	}
	tr2 := New(StartOptions{Route: "/x"})
	tr2.FinishRoot(200)
	if n := tr2.Spans()[0].Name; n != "/x" {
		t.Fatalf("method-less root name = %q", n)
	}
	var status string
	for _, a := range tr.Spans()[0].Attrs {
		if a.Key == "http.status" {
			status = a.Value
		}
	}
	if status != "200" {
		t.Fatalf("http.status attr = %q", status)
	}
}

func TestAttrHelpers(t *testing.T) {
	if a := Str("k", "v"); a.Key != "k" || a.Value != "v" {
		t.Fatal("Str")
	}
	if a := Int("n", -7); a.Value != "-7" {
		t.Fatal("Int")
	}
	if !strings.HasPrefix(FormatTraceparent(TraceID{1}, SpanID{2}), "00-01000000") {
		t.Fatal("FormatTraceparent prefix")
	}
}
