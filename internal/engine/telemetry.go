package engine

import (
	"container/heap"
	"errors"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
)

// TelemetryConfig selects which components a Telemetry bundle enables.
// The zero value keeps the slow log and the stage stats only.
type TelemetryConfig struct {
	// Spans records one span per item per stage into a run-level trace
	// (see WriteTrace).
	Spans bool
	// SlowK retains the K slowest traces per stage (<= 0: 10).
	SlowK int
	// Logger, when non-nil, receives stage lifecycle log lines at debug
	// level and per-stage summaries at info level.
	Logger *slog.Logger
}

// Telemetry instruments one pipeline run: the slow log, the stage stats
// behind -progress, a logger and — with Spans — the run's trace. It
// implements Observer and SpanObserver, so passing it as (or composing
// it into) Options.Observer instruments the whole pipeline.
type Telemetry struct {
	run   *reqtrace.Trace // the run's spans; nil unless TelemetryConfig.Spans
	slow  *SlowLog
	stats *Stats
	log   *slog.Logger
}

// NewTelemetry builds a telemetry bundle.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	t := &Telemetry{
		slow:  NewSlowLog(cfg.SlowK),
		stats: NewStats(),
		log:   cfg.Logger,
	}
	if cfg.Spans {
		// The trace's start anchors the whole-stage envelope spans
		// (FinishRun) and is the document's time origin.
		t.run = reqtrace.New(reqtrace.StartOptions{Route: "mosaic run", Unbounded: true})
	}
	return t
}

// Slow returns the slow-trace log.
func (t *Telemetry) Slow() *SlowLog { return t.slow }

// Stats returns the embedded per-stage counter collector, snapshotable
// while the pipeline runs (it backs -progress).
func (t *Telemetry) Stats() *Stats { return t.stats }

// WriteTrace writes the run's spans to path as a Chrome trace-event
// document — one lane per stage, one "X" event per item per stage with
// the item's identity in args.item — through the writer of a serve
// node's flight dumps. It needs TelemetryConfig.Spans.
func (t *Telemetry) WriteTrace(path string) error {
	if t.run == nil {
		return errors.New("engine: WriteTrace on a bundle built without TelemetryConfig.Spans")
	}
	return reqtrace.WriteChromeFile(path, t.run)
}

// StageStarted implements Observer.
func (t *Telemetry) StageStarted(s StageID) {
	t.stats.StageStarted(s)
	if t.log != nil {
		t.log.Debug("stage started", "stage", string(s))
	}
}

// StageFinished implements Observer.
func (t *Telemetry) StageFinished(s StageID) {
	t.stats.StageFinished(s)
	if t.log != nil {
		snap := t.stats.Stage(s)
		t.log.Debug("stage finished", "stage", string(s),
			"in", snap.In, "out", snap.Out, "errors", snap.Errors,
			"wall", snap.Wall, "items_per_sec", snap.Throughput())
	}
}

// ItemIn implements Observer.
func (t *Telemetry) ItemIn(s StageID) { t.stats.ItemIn(s) }

// ItemOut implements Observer.
func (t *Telemetry) ItemOut(s StageID) { t.stats.ItemOut(s) }

// ItemError implements Observer.
func (t *Telemetry) ItemError(s StageID, err error) {
	t.stats.ItemError(s, err)
	if t.log != nil {
		t.log.Warn("item error", "stage", string(s), "err", err)
	}
}

// ItemSpan implements SpanObserver: it feeds the slow log and (when
// enabled) the run's trace, where the span is named after its stage and
// carries the item's identity.
func (t *Telemetry) ItemSpan(s StageID, name string, start time.Time, d time.Duration) {
	t.slow.Observe(string(s), name, d)
	if t.run != nil {
		t.run.AddCompleted(t.run.Root(), string(s), start, d, reqtrace.Str("item", name))
	}
}

// FinishRun records whole-stage spans ("run.<stage>", one lane) after a
// pipeline run completes, so the Chrome trace shows the stage envelope
// above the per-item spans. Safe to call when spans are disabled.
func (t *Telemetry) FinishRun() {
	if t.run == nil {
		return
	}
	elapsed := time.Duration(0)
	for _, snap := range t.stats.Snapshot() {
		if !snap.Started {
			continue
		}
		// Stage start offsets are not individually recorded; anchor every
		// stage span at the run start. Stages overlap in a streaming
		// pipeline anyway, so the envelope view stays honest.
		t.run.AddCompleted(t.run.Root(), "run."+string(snap.Stage), t.run.Start(), snap.Wall)
		if snap.Wall > elapsed {
			elapsed = snap.Wall
		}
	}
	if t.log != nil {
		t.log.Info("pipeline run finished", "wall", elapsed)
	}
}

var (
	_ Observer     = (*Telemetry)(nil)
	_ SpanObserver = (*Telemetry)(nil)
)

// SlowEntry is one retained slow item: a trace (or app) and how long
// one stage spent on it.
type SlowEntry struct {
	Stage string        `json:"stage"`
	Name  string        `json:"name"`
	Dur   time.Duration `json:"dur_ns"`
}

// slowHeap is a min-heap on duration, so the root is the fastest of the
// retained K and eviction is O(log K).
type slowHeap []SlowEntry

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].Dur < h[j].Dur }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(SlowEntry)) }
func (h *slowHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// SlowLog retains the K slowest items per stage, concurrent-safe.
type SlowLog struct {
	mu sync.Mutex
	k  int
	by map[string]*slowHeap
}

// NewSlowLog returns a log keeping the k slowest entries per stage
// (<= 0: 10).
func NewSlowLog(k int) *SlowLog {
	if k <= 0 {
		k = 10
	}
	return &SlowLog{k: k, by: make(map[string]*slowHeap)}
}

// Observe records one item's duration in a stage.
func (l *SlowLog) Observe(stage, name string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.by[stage]
	if !ok {
		h = &slowHeap{}
		l.by[stage] = h
	}
	if h.Len() < l.k {
		heap.Push(h, SlowEntry{Stage: stage, Name: name, Dur: d})
		return
	}
	if d > (*h)[0].Dur {
		(*h)[0] = SlowEntry{Stage: stage, Name: name, Dur: d}
		heap.Fix(h, 0)
	}
}

// Slowest returns the retained entries for one stage, slowest first.
func (l *SlowLog) Slowest(stage string) []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.by[stage]
	if !ok {
		return nil
	}
	out := append([]SlowEntry(nil), (*h)...)
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}
