package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// corpusJobs builds a deterministic valid corpus of n traces across a
// few (user, app) groups.
func corpusJobs(n int) []*darshan.Job {
	rng := rand.New(rand.NewSource(11))
	jobs := make([]*darshan.Job, 0, n)
	for i := 0; i < n; i++ {
		b := gen.NewBuilder(rng, fmt.Sprintf("u%d", i%3), fmt.Sprintf("/bin/app%d", i%4), uint64(i+1), 8, 3600)
		b.Burst(gen.BurstSpec{At: 30, Duration: 60, Bytes: 1 << 30, Records: 4})
		jobs = append(jobs, b.Job())
	}
	return jobs
}

// runTrace is the subset of the Chrome trace-event schema the tests
// assert on.
type runTrace struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// writtenTrace writes the bundle's run trace and reads it back.
func writtenTrace(t *testing.T, tel *Telemetry) runTrace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.trace.json")
	if err := tel.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc runTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("run trace is not valid trace-event JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	return doc
}

func TestTelemetryInstrumentsEngineRun(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{Spans: true, SlowK: 5})
	jobs := corpusJobs(24)
	res, err := Run(context.Background(), Jobs(jobs), Options{
		Workers:  4,
		Observer: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel.FinishRun()

	// Spans: one decode span per trace, one categorize span per app,
	// plus whole-stage envelope spans from FinishRun.
	var decode, categorize, envelope int
	for _, e := range writtenTrace(t, tel).TraceEvents {
		switch {
		case e.Ph != "X":
		case e.Cat == "decode":
			decode++
		case e.Cat == "categorize":
			categorize++
		case e.Cat == "run":
			envelope++
		}
	}
	if decode != len(jobs) {
		t.Fatalf("decode spans = %d, want %d", decode, len(jobs))
	}
	if categorize != len(res.Apps) {
		t.Fatalf("categorize spans = %d, want %d", categorize, len(res.Apps))
	}
	if envelope == 0 {
		t.Fatal("no whole-stage envelope spans after FinishRun")
	}

	// Slow log retained categorize entries named user/app.
	slow := tel.Slow().Slowest("categorize")
	if len(slow) == 0 {
		t.Fatal("slow log is empty for categorize")
	}
	if !strings.Contains(slow[0].Name, "/") {
		t.Fatalf("slow entry name %q does not look like user/app", slow[0].Name)
	}

	// Stats: the same run is visible through the embedded collector.
	if got := tel.Stats().Stage(StageFunnel).In; got != int64(len(jobs)) {
		t.Fatalf("funnel in = %d, want %d", got, len(jobs))
	}
	if got := tel.Stats().Stage(StageCategorize).Out; got != int64(len(res.Apps)) {
		t.Fatalf("categorize out = %d, want %d", got, len(res.Apps))
	}
}

// TestRunTraceKeepsEveryItem: the run's trace is the one trace without
// the request traces' 512-span cap — a corpus of 2 000 traces keeps a
// span per item per stage — and it renders one named lane per stage plus
// the run envelope, with the item's identity on every "X" event.
func TestRunTraceKeepsEveryItem(t *testing.T) {
	const items = 2000
	tel := NewTelemetry(TelemetryConfig{Spans: true})
	stages := []StageID{StageDecode, StageFunnel, StageCategorize}
	start := time.Now()
	for _, s := range stages {
		tel.StageStarted(s)
		for i := 0; i < items; i++ {
			tel.ItemSpan(s, fmt.Sprintf("corpus/%04d.mosd", i), start.Add(time.Duration(i)*time.Microsecond), time.Microsecond)
		}
		tel.StageFinished(s)
	}
	tel.FinishRun()

	doc := writtenTrace(t, tel)
	lanes := map[string]int{} // lane name → tid, from the "M" events
	perLane := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			if _, dup := lanes[e.Args["name"]]; dup {
				t.Fatalf("lane %q named twice", e.Args["name"])
			}
			lanes[e.Args["name"]] = e.Tid
		case e.Ph == "X":
			perLane[e.Cat]++
			if tid, ok := lanes[e.Cat]; !ok || tid != e.Tid {
				t.Fatalf("event %q in lane %q has tid %d, lane table says %d (named: %v)", e.Name, e.Cat, e.Tid, tid, ok)
			}
			if e.Cat != "run" && !strings.HasPrefix(e.Args["item"], "corpus/") {
				t.Fatalf("event %q carries no item identity: %v", e.Name, e.Args)
			}
		}
	}
	if len(lanes) != 4 {
		t.Fatalf("lanes = %v, want decode, funnel, categorize and run", lanes)
	}
	for _, s := range stages {
		if perLane[string(s)] != items {
			t.Fatalf("%s lane has %d events, want %d", s, perLane[string(s)], items)
		}
	}
	if perLane["run"] != len(stages) {
		t.Fatalf("run lane has %d envelope events, want %d", perLane["run"], len(stages))
	}
}

func TestTelemetryWithoutSpansRecordsNoSpans(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{})
	// ItemSpan with spans disabled must still feed the slow log.
	tel.ItemSpan(StageDecode, "x.mosd", time.Now(), time.Millisecond)
	if len(tel.Slow().Slowest("decode")) != 1 {
		t.Fatal("slow log missed a span with recording disabled")
	}
	tel.FinishRun() // must not panic with spans disabled
	if err := tel.WriteTrace(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("WriteTrace succeeded on a bundle without spans")
	}
}

func TestSlowLogKeepsKSlowest(t *testing.T) {
	l := NewSlowLog(3)
	durs := []time.Duration{5, 1, 9, 3, 7, 2, 8}
	for i, d := range durs {
		l.Observe("decode", string(rune('a'+i)), d*time.Millisecond)
	}
	got := l.Slowest("decode")
	if len(got) != 3 {
		t.Fatalf("retained = %d, want 3", len(got))
	}
	want := []time.Duration{9, 8, 7}
	for i, e := range got {
		if e.Dur != want[i]*time.Millisecond {
			t.Fatalf("slowest[%d] = %v, want %v", i, e.Dur, want[i]*time.Millisecond)
		}
	}
	if l.Slowest("categorize") != nil {
		t.Fatal("unknown stage should return nil")
	}
}
