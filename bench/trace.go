package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A traced run replays a workload's inputs in-process, one public layer
// function at a time, and records a span around every call. The spans
// are recorded here, from the benchmark's own files, around the calls
// into each layer; spans inside the program are a later change. They are
// kept in memory and written out as Chrome-trace JSON when the replay
// ends. End-to-end metrics never come from a traced run.

// span is one call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer was made
	id, parent int           // parent 0: a request's root span
	req        int           // shared by every span of one replayed request
}

// tracer collects spans. Replays run on one goroutine, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID, to be passed to end and used as
// the parent of the spans it causes.
func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), id: len(t.spans) + 1, parent: parent, req: req})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].end = time.Since(t.t0) }

// us is the duration of span id in microseconds.
func (t *tracer) us(id int) float64 { return us(t.spans[id-1].end - t.spans[id-1].start) }

// call records fn as one span.
func (t *tracer) call(req, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// durations lists, in microseconds, every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, us(s.end-s.start))
		}
	}
	return out
}

// total sums, in microseconds, every span called name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// writeChrome writes the spans in Chrome's trace-event format (complete
// events, microseconds), which Perfetto and chrome://tracing load. The
// replay is sequential, so one track shows the nesting by time; the
// request and parent IDs are in each event's args.
func (t *tracer) writeChrome(e *env, workload string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent, "req": s.req},
		}
	}
	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// allocKB runs fn on this goroutine and returns the kilobytes it
// allocated, from the runtime's cumulative allocation counter. Nothing
// else may be allocating meanwhile, so callers stop their servers'
// background work first or measure paths that have none.
func allocKB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

// layerMedian sets a per-layer metric to the median duration of the
// spans called span and returns it.
func layerMedian(rep *report, t *tracer, metric, span string) float64 {
	d := t.durations(span)
	if len(d) == 0 {
		return 0
	}
	m := median(d)
	rep.set(metric, m)
	return m
}

// budgetRow is one line of a workload's budget table.
type budgetRow struct {
	name  string
	value float64
}

// printBudget adds a workload's budget table to the report: the layer
// rows, their sum, the in-process whole they are parts of, and the
// remainder no layer owns.
func printBudget(rep *report, title, unit string, rows []budgetRow, whole float64) {
	rep.notef("budget: %s (%s)", title, unit)
	sum := 0.0
	for _, r := range rows {
		rep.notef("  %-34s %12.1f", r.name, r.value)
		sum += r.value
	}
	rep.notef("  %-34s %12.1f", "sum of layers", sum)
	rep.notef("  %-34s %12.1f", "in-process whole", whole)
	rep.notef("  %-34s %12.1f  (%.1f%% of the whole)", "unattributed", whole-sum, 100*(whole-sum)/whole)
}
