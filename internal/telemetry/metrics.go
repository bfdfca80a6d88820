// Package telemetry is MOSAIC's zero-dependency observability layer:
// a concurrent-safe metrics registry with Prometheus and OpenMetrics
// text exposition, burn-rate alerts over it, the Go runtime's vitals and
// structured logging built on log/slog.
//
// It knows nothing of MOSAIC: it imports no other package of this
// module. What observes a subsystem lives in that subsystem and
// registers here — cluster.RegisterMetrics, ring.Metrics, the serve
// tier's instruments. Spans are internal/reqtrace's. It imports no net either,
// since every program that categorizes links it: the HTTP surface over
// it (/metrics, /healthz, pprof) is internal/debughttp's.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is an immutable metric label set. Identity of an instrument in
// the registry is (name, sorted label pairs).
type Labels map[string]string

// key renders the canonical identity suffix of a label set.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, escapeLabel(l[k]))
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	// Prometheus label values escape backslash, double-quote and newline.
	// %q handles backslash and quote; translate newlines explicitly.
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the current value.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Exemplar links one observed value to the trace that produced it, per
// the OpenMetrics exemplar model: scraping tooling can jump from a
// latency bucket straight to the request trace behind it.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

// Histogram observes a distribution of values over configurable
// cumulative buckets, Prometheus-style: bucket i counts observations
// <= UpperBounds[i], with an implicit +Inf bucket holding everything.
type Histogram struct {
	mu        sync.Mutex
	bounds    []float64   // strictly increasing upper bounds, +Inf implicit
	counts    []int64     // len(bounds)+1; last is the +Inf bucket
	exemplars []*Exemplar // lazily allocated; latest exemplar per bucket
	sum       float64
	count     int64
}

// DefBuckets are the default histogram buckets, in seconds, spanning
// microsecond decode latencies to multi-second corpus stages.
func DefBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue // +Inf is implicit; NaN is meaningless as a bound
		}
		bs = append(bs, b)
	}
	sort.Float64s(bs)
	// Deduplicate equal bounds so exposition stays well-formed.
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	bs = dedup
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Find the first bucket whose bound is >= v.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[idx]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// FoldCumulative feeds the growth of a cumulative bucket histogram into
// h: counts[i] observations so far between buckets[i] and buckets[i+1]
// (edges may be ±Inf), against prev, the counts of the last fold. Each
// bucket's growth is observed at the bucket's midpoint, in one lock
// hold. It returns the snapshot for the next fold; a nil or differently
// sized prev folds from zero.
func (h *Histogram) FoldCumulative(counts []uint64, buckets []float64, prev []uint64) []uint64 {
	if len(prev) != len(counts) {
		prev = make([]uint64, len(counts))
	}
	h.mu.Lock()
	for i, n := range counts {
		delta := int64(n - prev[i])
		if delta <= 0 {
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			mid = 0
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = lo + (hi-lo)/2
		}
		h.counts[sort.SearchFloat64s(h.bounds, mid)] += delta
		h.sum += mid * float64(delta)
		h.count += delta
	}
	h.mu.Unlock()
	copy(prev, counts)
	return prev
}

// ObserveWithExemplar records one value and remembers (traceID, v, now)
// as the owning bucket's exemplar, replacing any previous one. An empty
// traceID degrades to a plain Observe. Exemplars surface only in the
// OpenMetrics exposition (WriteOpenMetrics); the classic Prometheus
// text format has no legal syntax for them.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if traceID == "" {
		h.Observe(v)
		return
	}
	if math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	now := time.Now()
	h.mu.Lock()
	h.counts[idx]++
	h.sum += v
	h.count++
	if h.exemplars == nil {
		h.exemplars = make([]*Exemplar, len(h.counts))
	}
	if ex := h.exemplars[idx]; ex != nil {
		// Overwrite in place — Snapshot deep-copies under the same lock,
		// so the steady-state observe path never allocates.
		ex.Value, ex.TraceID, ex.Time = v, traceID, now
	} else {
		h.exemplars[idx] = &Exemplar{Value: v, TraceID: traceID, Time: now}
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	UpperBounds []float64   // per-bucket upper bounds (exclusive of +Inf)
	Counts      []int64     // per-bucket (non-cumulative) counts; last is +Inf
	Exemplars   []*Exemplar // per-bucket latest exemplar (nil entries when none)
	Sum         float64
	Count       int64
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Deep-copy exemplars: ObserveWithExemplar mutates them in place
	// under h.mu, so handing out the live pointers would race.
	var exs []*Exemplar
	if h.exemplars != nil {
		exs = make([]*Exemplar, len(h.exemplars))
		for i, ex := range h.exemplars {
			if ex != nil {
				cp := *ex
				exs[i] = &cp
			}
		}
	}
	return HistogramSnapshot{
		UpperBounds: append([]float64(nil), h.bounds...),
		Counts:      append([]int64(nil), h.counts...),
		Exemplars:   exs,
		Sum:         h.sum,
		Count:       h.count,
	}
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the owning bucket; it returns 0 with no observations. The last
// bucket is approximated by its lower bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.UpperBounds[i-1]
		}
		if i >= len(s.UpperBounds) { // +Inf bucket
			return lo
		}
		hi := s.UpperBounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	if n := len(s.UpperBounds); n > 0 {
		return s.UpperBounds[n-1]
	}
	return 0
}

// metricKind tags an instrument for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name   string
	help   string
	kind   metricKind
	labels Labels
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// Registry is a concurrent-safe set of named instruments. Registering
// the same (name, labels) twice returns the existing instrument, so
// call sites may re-register idempotently.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // keyed by name + label key
	order   []string           // registration order of keys

	collectMu    sync.Mutex
	collectors   map[string]func()
	collectOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) register(name, help string, kind metricKind, labels Labels) *metric {
	key := name + labels.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels}
	switch kind {
	case kindCounter:
		m.ctr = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	}
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter returns the counter registered under (name, labels), creating
// it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.register(name, help, kindCounter, labels).ctr
}

// Gauge returns the gauge registered under (name, labels), creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.register(name, help, kindGauge, labels).gauge
}

// Histogram returns the histogram registered under (name, labels) with
// the given bucket upper bounds (nil: DefBuckets), creating it on first
// use. Buckets are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	key := name + labels.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		return m.hist
	}
	if buckets == nil {
		buckets = DefBuckets()
	}
	m := &metric{name: name, help: help, kind: kindHistogram, labels: labels, hist: newHistogram(buckets)}
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m.hist
}

// OnCollect registers a hook that runs at the start of every
// WritePrometheus call, before the registry is rendered. Hooks pull
// lazily-maintained values (e.g. package-level atomic totals) into
// registered instruments right before exposition, so the instrument
// values are current without per-event registry traffic. Hooks are
// deduplicated by name — re-registering an existing name is a no-op —
// and run in first-registration order, outside the registry lock (they
// may register or update instruments freely).
func (r *Registry) OnCollect(name string, fn func()) {
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	if r.collectors == nil {
		r.collectors = make(map[string]func())
	}
	if _, ok := r.collectors[name]; ok {
		return
	}
	r.collectors[name] = fn
	r.collectOrder = append(r.collectOrder, name)
}

// runCollectors invokes the OnCollect hooks in registration order.
func (r *Registry) runCollectors() {
	r.collectMu.Lock()
	hooks := make([]func(), 0, len(r.collectOrder))
	for _, name := range r.collectOrder {
		hooks = append(hooks, r.collectors[name])
	}
	r.collectMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// family is one exposition group: every series sharing a metric name.
type family struct {
	name, help string
	kind       metricKind
	series     []*metric
}

// families snapshots the registry grouped by metric name, families in
// first-registration order and series within a family in label order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	var fams []*family
	byName := make(map[string]*family)
	for _, key := range r.order {
		m := r.metrics[key]
		f, ok := byName[m.name]
		if !ok {
			f = &family{name: m.name, help: m.help, kind: m.kind}
			byName[m.name] = f
			fams = append(fams, f)
		}
		f.series = append(f.series, m)
	}
	r.mu.Unlock()
	for _, f := range fams {
		sort.Slice(f.series, func(i, j int) bool {
			return f.series[i].labels.key() < f.series[j].labels.key()
		})
	}
	return fams
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4), grouped by metric name with
// one # HELP/# TYPE header per family, families in first-registration
// order and series within a family in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runCollectors()
	var b strings.Builder
	for _, f := range r.families() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, [...]string{"counter", "gauge", "histogram"}[f.kind])
		for _, m := range f.series {
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", m.name, m.labels.key(), m.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", m.name, m.labels.key(), formatFloat(m.gauge.Value()))
			case kindHistogram:
				s := m.hist.Snapshot()
				var cum int64
				for i, bound := range s.UpperBounds {
					cum += s.Counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, withLabel(m.labels, "le", formatFloat(bound)), cum)
				}
				cum += s.Counts[len(s.Counts)-1]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, withLabel(m.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, m.labels.key(), formatFloat(s.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.labels.key(), s.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// OpenMetricsContentType is the content type of WriteOpenMetrics output.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders the registry in the OpenMetrics 1.0 text
// format. It differs from WritePrometheus in the ways the spec demands —
// counter families drop their "_total" suffix in # TYPE lines, the
// output terminates with "# EOF" — and in the one way that matters:
// histogram buckets carry trace-ID exemplars ("# {trace_id=...} v ts"),
// which the classic 0.0.4 format cannot legally express. Serve this
// when the scrape's Accept header asks for application/openmetrics-text.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	r.runCollectors()
	var b strings.Builder
	for _, f := range r.families() {
		famName := f.name
		if f.kind == kindCounter {
			famName = strings.TrimSuffix(famName, "_total")
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", famName, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", famName, [...]string{"counter", "gauge", "histogram"}[f.kind])
		for _, m := range f.series {
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s_total%s %d\n", famName, m.labels.key(), m.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", m.name, m.labels.key(), formatFloat(m.gauge.Value()))
			case kindHistogram:
				s := m.hist.Snapshot()
				var cum int64
				for i := range s.Counts {
					cum += s.Counts[i]
					le := "+Inf"
					if i < len(s.UpperBounds) {
						le = formatFloat(s.UpperBounds[i])
					}
					fmt.Fprintf(&b, "%s_bucket%s %d", m.name, withLabel(m.labels, "le", le), cum)
					if i < len(s.Exemplars) && s.Exemplars[i] != nil {
						ex := s.Exemplars[i]
						fmt.Fprintf(&b, " # {trace_id=%q} %s %s",
							escapeLabel(ex.TraceID), formatFloat(ex.Value),
							formatFloat(float64(ex.Time.UnixNano())/1e9))
					}
					b.WriteByte('\n')
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, m.labels.key(), formatFloat(s.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.labels.key(), s.Count)
			}
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// withLabel renders a label key including one extra pair (used for the
// histogram "le" bound).
func withLabel(l Labels, k, v string) string {
	merged := make(Labels, len(l)+1)
	for key, val := range l {
		merged[key] = val
	}
	merged[k] = v
	return merged.key()
}

// formatFloat renders a float the way Prometheus expects: shortest
// representation, integers without exponent where possible.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}
