package engine

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// StageID names one stage of the pipeline.
type StageID string

// The five pipeline stages, in flow order.
const (
	StageScan       StageID = "scan"       // enumerate trace references
	StageDecode     StageID = "decode"     // parse traces (parallel, order-preserving)
	StageFunnel     StageID = "funnel"     // validate + deduplicate (streaming barrier)
	StageCategorize StageID = "categorize" // run the detection chain (parallel / remote)
	StageAggregate  StageID = "aggregate"  // accumulate corpus distributions
)

// Stages lists the pipeline stages in flow order.
func Stages() []StageID {
	return []StageID{StageScan, StageDecode, StageFunnel, StageCategorize, StageAggregate}
}

// Observer receives pipeline lifecycle events. Implementations must be
// safe for concurrent use: ItemIn/ItemOut/ItemError are called from stage
// worker goroutines. The built-in *Stats collector satisfies the common
// case; nil observers are replaced by a no-op.
type Observer interface {
	// StageStarted fires once when a stage begins processing.
	StageStarted(s StageID)
	// StageFinished fires once when a stage has drained (or aborted).
	StageFinished(s StageID)
	// ItemIn fires when a stage accepts one input item.
	ItemIn(s StageID)
	// ItemOut fires when a stage emits one output item.
	ItemOut(s StageID)
	// ItemError fires when a stage records an error for one item.
	ItemError(s StageID, err error)
}

// SpanObserver is an optional Observer extension: implementations
// additionally receive one completed span per item per stage (the
// trace's decode time, its funnel ingest time, the app's categorize
// time), identified by the trace path or the app's user/name. The
// engine type-asserts once per run; when the observer does not
// implement SpanObserver no per-item clock reads happen at all.
type SpanObserver interface {
	// ItemSpan fires after a stage finishes one item. name identifies
	// the item (trace path, app identity); start and d bound the work.
	ItemSpan(s StageID, name string, start time.Time, d time.Duration)
}

// NopObserver ignores every event.
type NopObserver struct{}

// StageStarted implements Observer.
func (NopObserver) StageStarted(StageID) {}

// StageFinished implements Observer.
func (NopObserver) StageFinished(StageID) {}

// ItemIn implements Observer.
func (NopObserver) ItemIn(StageID) {}

// ItemOut implements Observer.
func (NopObserver) ItemOut(StageID) {}

// ItemError implements Observer.
func (NopObserver) ItemError(StageID, error) {}

// MultiObserver fans events out to several observers, in argument
// order. When at least one observer implements SpanObserver the
// returned composite does too (forwarding spans only to those that
// do); otherwise it deliberately does not, so the engine skips span
// clock reads entirely.
func MultiObserver(obs ...Observer) Observer {
	m := multiObserver(obs)
	for _, o := range obs {
		if _, ok := o.(SpanObserver); ok {
			return &multiSpanObserver{multiObserver: m}
		}
	}
	return m
}

type multiObserver []Observer

func (m multiObserver) StageStarted(s StageID) {
	for _, o := range m {
		o.StageStarted(s)
	}
}
func (m multiObserver) StageFinished(s StageID) {
	for _, o := range m {
		o.StageFinished(s)
	}
}
func (m multiObserver) ItemIn(s StageID) {
	for _, o := range m {
		o.ItemIn(s)
	}
}
func (m multiObserver) ItemOut(s StageID) {
	for _, o := range m {
		o.ItemOut(s)
	}
}
func (m multiObserver) ItemError(s StageID, e error) {
	for _, o := range m {
		o.ItemError(s, e)
	}
}

// multiSpanObserver is the MultiObserver variant returned when at least
// one member implements SpanObserver.
type multiSpanObserver struct {
	multiObserver
}

func (m *multiSpanObserver) ItemSpan(s StageID, name string, start time.Time, d time.Duration) {
	for _, o := range m.multiObserver {
		if so, ok := o.(SpanObserver); ok {
			so.ItemSpan(s, name, start, d)
		}
	}
}

// StageSnapshot is the point-in-time view of one stage's counters.
type StageSnapshot struct {
	Stage    StageID       `json:"stage"`
	In       int64         `json:"in"`        // items accepted
	Out      int64         `json:"out"`       // items emitted
	Errors   int64         `json:"errors"`    // items that errored in the stage
	InFlight int64         `json:"in_flight"` // In - Out - Errors
	Started  bool          `json:"started"`
	Finished bool          `json:"finished"`
	Wall     time.Duration `json:"wall_ns"` // stage start to finish (or to now)
	// ItemsPerSec mirrors Throughput() so JSON snapshots (stages.json)
	// carry the rate without the reader re-deriving it.
	ItemsPerSec float64 `json:"items_per_sec"`
}

// Throughput returns Out/Wall in items per second (0 when unknown).
func (s StageSnapshot) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Out) / s.Wall.Seconds()
}

// Stats is the built-in Observer: a thread-safe per-stage counter set
// that can be snapshotted at any time, including while the pipeline runs
// (progress views) and after it finishes (bench breakdowns).
type Stats struct {
	mu     sync.Mutex
	stages map[StageID]*stageStats
	now    func() time.Time // test hook
}

type stageStats struct {
	in, out, errs     int64
	started, finished bool
	startT, finishT   time.Time
}

// NewStats returns an empty collector.
func NewStats() *Stats {
	return &Stats{stages: make(map[StageID]*stageStats), now: time.Now}
}

func (t *Stats) get(s StageID) *stageStats {
	st, ok := t.stages[s]
	if !ok {
		st = &stageStats{}
		t.stages[s] = st
	}
	return st
}

// StageStarted implements Observer.
func (t *Stats) StageStarted(s StageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.get(s)
	if !st.started {
		st.started = true
		st.startT = t.now()
	}
}

// StageFinished implements Observer.
func (t *Stats) StageFinished(s StageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.get(s)
	if !st.finished {
		st.finished = true
		st.finishT = t.now()
	}
}

// ItemIn implements Observer.
func (t *Stats) ItemIn(s StageID) {
	t.mu.Lock()
	t.get(s).in++
	t.mu.Unlock()
}

// ItemOut implements Observer.
func (t *Stats) ItemOut(s StageID) {
	t.mu.Lock()
	t.get(s).out++
	t.mu.Unlock()
}

// ItemError implements Observer.
func (t *Stats) ItemError(s StageID, _ error) {
	t.mu.Lock()
	t.get(s).errs++
	t.mu.Unlock()
}

// Snapshot returns the current counters for every stage, in flow order.
// Stages that never started are omitted.
func (t *Stats) Snapshot() []StageSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageSnapshot, 0, len(t.stages))
	for _, id := range Stages() {
		st, ok := t.stages[id]
		if !ok {
			continue
		}
		inFlight := st.in - st.out - st.errs
		if inFlight < 0 || st.finished {
			// Stages that only emit (scan) or that reduce their input
			// (funnel: many traces in, few groups out) report no
			// in-flight work; a drained stage holds nothing either way.
			inFlight = 0
		}
		snap := StageSnapshot{
			Stage:    id,
			In:       st.in,
			Out:      st.out,
			Errors:   st.errs,
			InFlight: inFlight,
			Started:  st.started,
			Finished: st.finished,
		}
		switch {
		case st.started && st.finished:
			snap.Wall = st.finishT.Sub(st.startT)
		case st.started:
			snap.Wall = t.now().Sub(st.startT)
		}
		snap.ItemsPerSec = snap.Throughput()
		out = append(out, snap)
	}
	return out
}

// Stage returns the snapshot of one stage (zero value when the stage
// never ran).
func (t *Stats) Stage(id StageID) StageSnapshot {
	for _, s := range t.Snapshot() {
		if s.Stage == id {
			return s
		}
	}
	return StageSnapshot{Stage: id}
}

// WriteStageTable renders per-stage counters, wall times and rates as
// an aligned table — the one renderer shared by `mosaic -progress`
// (final view) and the mosaic-bench stage breakdown, so a perf
// regression can be attributed to one stage in either frontend.
func WriteStageTable(w io.Writer, stages []StageSnapshot) {
	if len(stages) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-12s %10s %10s %8s %12s %14s\n", "stage", "in", "out", "errors", "wall", "items/s")
	for _, s := range stages {
		tp := "-"
		if t := s.Throughput(); t > 0 {
			tp = fmt.Sprintf("%.0f", t)
		}
		fmt.Fprintf(w, "  %-12s %10d %10d %8d %12v %14s\n",
			s.Stage, s.In, s.Out, s.Errors, s.Wall.Round(time.Millisecond), tp)
	}
}

// WriteTable renders the collector's current snapshot via
// WriteStageTable.
func (t *Stats) WriteTable(w io.Writer) { WriteStageTable(w, t.Snapshot()) }

// String renders a one-line per-stage summary, the shape used by the
// mosaic --progress view and the bench breakdown.
func (t *Stats) String() string {
	var b strings.Builder
	for i, s := range t.Snapshot() {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s %d", s.Stage, s.Out)
		if s.InFlight > 0 {
			fmt.Fprintf(&b, " (+%d in flight)", s.InFlight)
		}
		if s.Errors > 0 {
			fmt.Fprintf(&b, " (%d err)", s.Errors)
		}
	}
	return b.String()
}
