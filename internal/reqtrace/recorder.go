package reqtrace

import (
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RecorderConfig configures a flight recorder.
type RecorderConfig struct {
	// Capacity is the ring size: how many completed request traces are
	// retained for /debug/requests (<= 0: 64). Retained traces are live
	// heap the GC re-scans every cycle, so capacity trades debugging
	// depth against collector load on busy servers.
	Capacity int
	// SlowThreshold, when > 0, dumps any request whose envelope
	// duration (root start to last span end, async work included)
	// exceeds it. The -slow-dump-ms flag lands here.
	SlowThreshold time.Duration
	// Dir receives Chrome-trace JSON dumps ("" disables dumping; the
	// ring keeps working). Created on first dump.
	Dir string
	// MaxDumps caps files written over the recorder's lifetime, so a
	// misbehaving deployment cannot fill a disk (<= 0: 64).
	MaxDumps int
	// Log receives dump/IO diagnostics (nil: silent).
	Log *slog.Logger
}

// Recorder is the black-box flight recorder: a fixed-size ring of the
// last N completed request traces, with automatic Chrome-trace dumps
// for errored or slow requests. Completion is O(1) under one short
// mutex hold (a pointer store); dumping happens outside the lock.
type Recorder struct {
	cfg RecorderConfig

	mu    sync.Mutex
	ring  []*Trace
	next  int
	total uint64

	dumps    atomic.Int64 // files successfully written
	dumpErrs atomic.Int64
	recorded atomic.Int64
	dirOnce  sync.Once
	dirErr   error
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.MaxDumps <= 0 {
		cfg.MaxDumps = 64
	}
	return &Recorder{cfg: cfg, ring: make([]*Trace, cfg.Capacity)}
}

// Complete records one finalized trace — the Trace.OnDone target. Slow
// or errored traces are additionally dumped as Chrome-trace JSON.
func (r *Recorder) Complete(t *Trace) {
	r.mu.Lock()
	r.ring[r.next] = t
	r.next = (r.next + 1) % len(r.ring)
	r.total++
	r.mu.Unlock()
	r.recorded.Add(1)

	if r.cfg.Dir == "" {
		return
	}
	slow := r.cfg.SlowThreshold > 0 && t.Duration() > r.cfg.SlowThreshold
	if !slow && !t.Errored() {
		return
	}
	if r.dumps.Load() >= int64(r.cfg.MaxDumps) {
		return
	}
	path, err := r.dump(t)
	if err != nil {
		r.dumpErrs.Add(1)
		if r.cfg.Log != nil {
			r.cfg.Log.Warn("flight dump failed", "trace", t.ID().String(), "err", err)
		}
		return
	}
	r.dumps.Add(1)
	if r.cfg.Log != nil {
		r.cfg.Log.Info("flight dump written", "trace", t.ID().String(),
			"path", path, "slow", slow, "errored", t.Errored(), "dur", t.Duration())
	}
}

// Recorded returns how many traces have completed into the ring.
func (r *Recorder) Recorded() int64 { return r.recorded.Load() }

// Dumps returns how many dump files were written.
func (r *Recorder) Dumps() int64 { return r.dumps.Load() }

// DumpErrors returns how many dump attempts failed.
func (r *Recorder) DumpErrors() int64 { return r.dumpErrs.Load() }

// dump writes one trace as Chrome trace-event JSON into Dir.
func (r *Recorder) dump(t *Trace) (string, error) {
	r.dirOnce.Do(func() { r.dirErr = os.MkdirAll(r.cfg.Dir, 0o755) })
	if r.dirErr != nil {
		return "", r.dirErr
	}
	path := filepath.Join(r.cfg.Dir, "req-"+t.ID().String()+".trace.json")
	return path, WriteChromeFile(path, t)
}

// snapshot returns the retained traces, newest first.
func (r *Recorder) snapshot() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.ring))
	for i := 1; i <= len(r.ring); i++ {
		t := r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}

// laneOf maps a span name to its Chrome lane: the subsystem prefix
// before the first '.' or ':' ("store.commit" → "store").
func laneOf(name string) string {
	if i := strings.IndexAny(name, ".:"); i > 0 {
		return name[:i]
	}
	return name
}

// chromeEvent is one Chrome trace-event object.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // µs since the document's epoch
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the top-level trace-event JSON document.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeFile writes one trace as a Perfetto-loadable Chrome
// trace-event document at path: the only writer of that format, under a
// flight dump and a corpus run's -trace-out alike. The trace is one
// process with one named lane per subsystem and one "X" event per span,
// span/parent IDs and attributes in args; every ts counts from the
// trace's start. Write-then-rename: a crash mid-write never leaves a
// torn JSON file for tooling to trip over.
func WriteChromeFile(path string, t *Trace) error {
	data, err := json.MarshalIndent(chromeDoc{
		TraceEvents:     chromeEvents(t),
		DisplayTimeUnit: "ms",
	}, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// chromeEvents renders one trace as process 1.
func chromeEvents(t *Trace) []chromeEvent {
	const pid = 1
	spans := t.Spans()
	lanes := map[string]int{}
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]string{"name": t.name() + " " + t.ID().String()},
	}}
	for _, s := range spans {
		l := laneOf(s.Name)
		if _, ok := lanes[l]; !ok {
			lanes[l] = len(lanes)
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: lanes[l],
				Args: map[string]string{"name": l},
			})
		}
	}
	for _, s := range spans {
		args := map[string]string{
			"span_id": s.ID.String(),
			"parent":  s.Parent.String(),
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		if s.ID == t.root {
			args["request_id"] = t.reqID
			args["trace_id"] = t.id.String()
		}
		lane := laneOf(s.Name)
		events = append(events, chromeEvent{
			Name: s.Name, Cat: lane, Ph: "X",
			Ts:  float64(s.Start.Sub(t.start).Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Pid: pid, Tid: lanes[lane],
			Args: args,
		})
	}
	return events
}

// Summary is one /debug/requests row: a completed request with its
// per-phase latency breakdown.
type Summary struct {
	Trace     string             `json:"trace_id"`
	RequestID string             `json:"request_id,omitempty"`
	Method    string             `json:"method"`
	Route     string             `json:"route"`
	Status    int                `json:"status"`
	Start     time.Time          `json:"start"`
	DurMS     float64            `json:"dur_ms"` // envelope: edge to last span end
	Spans     int                `json:"spans"`
	Dropped   int                `json:"dropped_spans,omitempty"`
	Error     string             `json:"error,omitempty"`
	Phases    map[string]float64 `json:"phases_ms,omitempty"` // summed ms by span name
}

func summarize(t *Trace) Summary {
	spans := t.Spans()
	phases := make(map[string]float64, len(spans))
	for _, s := range spans {
		if s.ID == t.root {
			continue // the root is the envelope, not a phase
		}
		phases[s.Name] += float64(s.Dur.Nanoseconds()) / 1e6
	}
	return Summary{
		Trace:     t.ID().String(),
		RequestID: t.RequestID(),
		Method:    t.method,
		Route:     t.route,
		Status:    t.Status(),
		Start:     t.Start(),
		DurMS:     float64(t.Duration().Nanoseconds()) / 1e6,
		Spans:     len(spans),
		Dropped:   t.Dropped(),
		Error:     t.Err(),
		Phases:    phases,
	}
}

// SpanJSON is one span in a /debug/requests/{id} document.
type SpanJSON struct {
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // offset from trace start
	DurUS   float64 `json:"dur_us"`
	Attrs   []Attr  `json:"attrs,omitempty"`
	Err     string  `json:"error,omitempty"`
}

// Detail is the full /debug/requests/{id} document: the summary row
// plus every span with parent links. Traces counts the retained traces
// the tree merges (see Get).
type Detail struct {
	Summary
	Traceparent string     `json:"traceparent"`
	Traces      int        `json:"traces"`
	SpanTree    []SpanJSON `json:"span_tree"`
}

// Recent returns up to n summaries, newest first (n <= 0: all
// retained).
func (r *Recorder) Recent(n int) []Summary {
	traces := r.snapshot()
	if n > 0 && n < len(traces) {
		traces = traces[:n]
	}
	out := make([]Summary, len(traces))
	for i, t := range traces {
		out[i] = summarize(t)
	}
	return out
}

// Get returns the full detail of one request by 32-hex-char trace ID:
// every retained trace with that ID merged into one span tree. A ring
// node holds several — its own request's, and one per RPC of a request
// that reached it, an RPC coming back to the node that sent it included;
// each RPC root keeps its remote parent, the span on the calling node.
// The summary is that of the trace whose root has no remote parent (the
// node's own request), or else the earliest, widened to the whole tree:
// its start, envelope, span count and phases. Span starts count from
// the earliest trace's start.
func (r *Recorder) Get(id string) (Detail, bool) {
	var parts []*Trace
	for _, t := range r.snapshot() {
		if t.ID().String() == id {
			parts = append(parts, t)
		}
	}
	if len(parts) == 0 {
		return Detail{}, false
	}
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].start.Before(parts[j].start) })
	primary := parts[0]
	for _, t := range parts {
		if t.remoteParent.IsZero() {
			primary = t
			break
		}
	}
	epoch, end := parts[0].start, parts[0].start
	d := Detail{Summary: summarize(primary), Traceparent: primary.Traceparent(), Traces: len(parts)}
	d.Spans, d.Dropped, d.Phases = 0, 0, map[string]float64{}
	for _, t := range parts {
		if e := t.start.Add(t.Duration()); e.After(end) {
			end = e
		}
		d.Dropped += t.Dropped()
		for _, s := range t.Spans() {
			if s.ID != t.root {
				d.Phases[s.Name] += float64(s.Dur.Nanoseconds()) / 1e6
			}
			sj := SpanJSON{
				ID:      s.ID.String(),
				Name:    s.Name,
				StartUS: float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
				DurUS:   float64(s.Dur.Nanoseconds()) / 1e3,
				Attrs:   s.Attrs,
				Err:     s.Err,
			}
			if !s.Parent.IsZero() {
				sj.Parent = s.Parent.String()
			}
			d.SpanTree = append(d.SpanTree, sj)
		}
	}
	d.Spans = len(d.SpanTree)
	d.Start = epoch
	d.DurMS = float64(end.Sub(epoch).Nanoseconds()) / 1e6
	return d, true
}
