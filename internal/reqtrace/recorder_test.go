package reqtrace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// completedTrace builds and finalizes one trace with a small span tree.
func completedTrace(rec *Recorder, route string, status int, spanDur time.Duration) *Trace {
	start := time.Now().Add(-spanDur - time.Millisecond)
	tr := New(StartOptions{Method: "POST", Route: route, Start: start, OnDone: rec.Complete})
	tr.AddCompleted(tr.Root(), "queue.wait", start, spanDur/2)
	tr.AddCompleted(tr.Root(), "store.commit", start.Add(spanDur/2), spanDur/2)
	tr.FinishRoot(status)
	return tr
}

func TestRingWraparound(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 4})
	var traces []*Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, completedTrace(rec, fmt.Sprintf("/r%d", i), 200, time.Millisecond))
	}
	sums := rec.Recent(0)
	if len(sums) != 4 {
		t.Fatalf("retained %d, want ring capacity 4", len(sums))
	}
	// Newest first: traces 9, 8, 7, 6.
	for i, s := range sums {
		want := traces[9-i].ID().String()
		if s.Trace != want {
			t.Fatalf("slot %d = %s, want %s", i, s.Trace, want)
		}
	}
	if rec.Recorded() != 10 {
		t.Fatalf("recorded = %d, want 10", rec.Recorded())
	}
	// Rotated-out traces are gone; retained ones resolvable.
	if _, ok := rec.Get(traces[0].ID().String()); ok {
		t.Fatal("rotated-out trace still resolvable")
	}
	if _, ok := rec.Get(traces[9].ID().String()); !ok {
		t.Fatal("retained trace not resolvable")
	}
}

func TestRecentLimit(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8})
	for i := 0; i < 5; i++ {
		completedTrace(rec, "/x", 200, time.Millisecond)
	}
	if got := len(rec.Recent(2)); got != 2 {
		t.Fatalf("Recent(2) = %d rows", got)
	}
	if got := len(rec.Recent(100)); got != 5 {
		t.Fatalf("Recent(100) = %d rows", got)
	}
}

func TestConcurrentRecordAndDump(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(RecorderConfig{
		Capacity: 16, Dir: dir, SlowThreshold: time.Nanosecond, MaxDumps: 1000,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				completedTrace(rec, fmt.Sprintf("/g%d", g), 200, time.Millisecond)
			}
		}(g)
	}
	// Readers race the writers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, s := range rec.Recent(5) {
					rec.Get(s.Trace)
				}
			}
		}()
	}
	wg.Wait()
	if rec.Recorded() != 160 {
		t.Fatalf("recorded = %d, want 160", rec.Recorded())
	}
	if rec.Dumps() == 0 {
		t.Fatal("slow threshold of 1ns dumped nothing")
	}
	if rec.DumpErrors() != 0 {
		t.Fatalf("dump errors = %d", rec.DumpErrors())
	}
}

// chromeDump is the subset of the Chrome trace-event schema the tests
// assert on.
type chromeDump struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// readDump decodes a document the one writer wrote.
func readDump(t *testing.T, path string) chromeDump {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("expected dump at %s: %v", path, err)
	}
	var doc chromeDump
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc
}

// TestWriteChromeFileRoundTrip pins what the document says about time
// and lanes: ts and dur in microseconds from the trace's start, one tid
// per subsystem prefix, every lane named by a metadata event, and no
// phase but "X" and "M".
func TestWriteChromeFileRoundTrip(t *testing.T) {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr := New(StartOptions{Route: "run", Start: base})
	tr.AddCompleted(tr.Root(), "decode", base, 2*time.Millisecond, Str("item", "a.mosd"))
	tr.AddCompleted(tr.Root(), "decode", base.Add(time.Millisecond), 3*time.Millisecond, Str("item", "b.mosd"))
	tr.AddCompleted(tr.Root(), "categorize", base.Add(5*time.Millisecond), 10*time.Millisecond, Str("item", "u/app"))

	path := filepath.Join(t.TempDir(), "run.trace.json")
	if err := WriteChromeFile(path, tr); err != nil {
		t.Fatal(err)
	}
	doc := readDump(t, path)
	lanes := map[string]int{}
	var complete []int
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete = append(complete, i)
		case "M":
			if e.Name == "thread_name" {
				lanes[e.Args["name"]] = e.Tid
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if len(complete) != 3 {
		t.Fatalf("complete events = %d, want 3", len(complete))
	}
	a, b, c := doc.TraceEvents[complete[0]], doc.TraceEvents[complete[1]], doc.TraceEvents[complete[2]]
	if a.Ts != 0 || b.Ts != 1000 || c.Ts != 5000 {
		t.Fatalf("ts = %v, %v, %v µs, want 0, 1000, 5000", a.Ts, b.Ts, c.Ts)
	}
	if a.Dur != 2000 || c.Dur != 10000 {
		t.Fatalf("dur = %v and %v µs, want 2000 and 10000", a.Dur, c.Dur)
	}
	if a.Tid != b.Tid || a.Tid == c.Tid {
		t.Fatalf("tids = %d, %d, %d: same-stage spans share a lane, different stages do not", a.Tid, b.Tid, c.Tid)
	}
	if len(lanes) != 2 || lanes["decode"] != a.Tid || lanes["categorize"] != c.Tid {
		t.Fatalf("lane names = %v, want decode → %d and categorize → %d", lanes, a.Tid, c.Tid)
	}
	if b.Args["item"] != "b.mosd" {
		t.Fatalf("attributes are not in args: %v", b.Args)
	}
}

// TestChromeFileNamesItsRequest: a dump found on disk says which request
// it is. The one process is named after the route and the trace ID, and
// the root span carries the request and trace IDs an operator greps the
// logs and /debug/requests for.
func TestChromeFileNamesItsRequest(t *testing.T) {
	base := time.Now().Add(-time.Second)
	tr := New(StartOptions{Method: "POST", Route: "/v1/traces", RequestID: "req-7", Start: base})
	tr.AddCompleted(tr.Root(), "store.commit", base, time.Millisecond)
	tr.FinishRoot(202)

	path := filepath.Join(t.TempDir(), "req.trace.json")
	if err := WriteChromeFile(path, tr); err != nil {
		t.Fatal(err)
	}
	var process string
	var root map[string]string
	for _, e := range readDump(t, path).TraceEvents {
		if e.Pid != 1 {
			t.Fatalf("event %q in process %d, want every event in process 1", e.Name, e.Pid)
		}
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			process = e.Args["name"]
		case e.Ph == "X" && e.Name == "POST /v1/traces":
			root = e.Args
		}
	}
	if want := "POST /v1/traces " + tr.ID().String(); process != want {
		t.Fatalf("process name %q, want %q", process, want)
	}
	if root["request_id"] != "req-7" || root["trace_id"] != tr.ID().String() {
		t.Fatalf("root span args %v, want request_id req-7 and trace_id %s", root, tr.ID())
	}
}

func TestSlowDumpGolden(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(RecorderConfig{Capacity: 4, Dir: dir, SlowThreshold: time.Nanosecond})
	tr := completedTrace(rec, "/v1/traces", 202, 2*time.Millisecond)

	doc := readDump(t, filepath.Join(dir, "req-"+tr.ID().String()+".trace.json"))
	names := map[string]bool{}
	var rootArgs map[string]string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
			if ev.Name == "POST /v1/traces" {
				rootArgs = ev.Args
			}
		}
	}
	for _, want := range []string{"POST /v1/traces", "queue.wait", "store.commit"} {
		if !names[want] {
			t.Errorf("dump missing span %q (have %v)", want, names)
		}
	}
	if rootArgs["trace_id"] != tr.ID().String() {
		t.Fatalf("root args missing trace_id: %v", rootArgs)
	}
}

func TestErrorDumpAndMaxDumps(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(RecorderConfig{Capacity: 8, Dir: dir, MaxDumps: 2})
	// Healthy request, no threshold: no dump.
	completedTrace(rec, "/ok", 200, time.Millisecond)
	if rec.Dumps() != 0 {
		t.Fatal("healthy request dumped without a slow threshold")
	}
	// Errored requests dump — but only up to MaxDumps.
	for i := 0; i < 5; i++ {
		completedTrace(rec, "/boom", 500, time.Millisecond)
	}
	if rec.Dumps() != 2 {
		t.Fatalf("dumps = %d, want MaxDumps cap of 2", rec.Dumps())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("%d files on disk, want 2", len(ents))
	}
}
