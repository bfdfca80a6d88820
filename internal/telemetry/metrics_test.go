package telemetry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterMonotonic(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_total", "help", nil)
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same instrument.
	if c2 := reg.Counter("t_total", "help", nil); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestGaugeSetAddConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g", "help", nil)
	g.Set(10)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %v, want 10 after balanced inc/dec", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	// Exactly on a bound lands in that bound's bucket (le is inclusive).
	h.Observe(1)
	// Below the first bound.
	h.Observe(0.5)
	// Between bounds.
	h.Observe(1.5)
	// Exactly the last bound.
	h.Observe(5)
	// Above every bound: +Inf bucket.
	h.Observe(99)
	// Negative values land in the first bucket.
	h.Observe(-3)
	// NaN is dropped entirely.
	h.Observe(math.NaN())

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6 (NaN dropped)", s.Count)
	}
	wantCounts := []int64{3, 1, 1, 1} // le=1: {1, 0.5, -3}; le=2: {1.5}; le=5: {5}; +Inf: {99}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], want, s.Counts)
		}
	}
	if want := 1 + 0.5 + 1.5 + 5 + 99 - 3; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}

func TestHistogramUnsortedAndDuplicateBounds(t *testing.T) {
	h := newHistogram([]float64{5, 1, 5, 2, math.Inf(1)})
	s := h.Snapshot()
	want := []float64{1, 2, 5}
	if len(s.UpperBounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", s.UpperBounds, want)
	}
	for i := range want {
		if s.UpperBounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", s.UpperBounds, want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in the first bucket
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("p50 = %v, want within (0, 1]", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mosaic_items_total", "Items processed.", Labels{"stage": "decode"}).Add(3)
	reg.Counter("mosaic_items_total", "Items processed.", Labels{"stage": "categorize"}).Add(2)
	reg.Gauge("mosaic_workers", "Live workers.", nil).Set(4)
	h := reg.Histogram("mosaic_latency_seconds", "Latency.", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP mosaic_items_total Items processed.
# TYPE mosaic_items_total counter
mosaic_items_total{stage="categorize"} 2
mosaic_items_total{stage="decode"} 3
# HELP mosaic_workers Live workers.
# TYPE mosaic_workers gauge
mosaic_workers 4
# HELP mosaic_latency_seconds Latency.
# TYPE mosaic_latency_seconds histogram
mosaic_latency_seconds_bucket{le="0.1"} 1
mosaic_latency_seconds_bucket{le="1"} 2
mosaic_latency_seconds_bucket{le="+Inf"} 3
mosaic_latency_seconds_sum 5.55
mosaic_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				reg.Counter("shared_total", "h", nil).Inc()
				reg.Histogram("shared_seconds", "h", nil, nil).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared_total", "h", nil).Value(); got != 400 {
		t.Fatalf("shared counter = %d, want 400", got)
	}
}

func TestObserveWithExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("mosaic_req_seconds", "Req.", []float64{0.1, 1}, nil)
	h.ObserveWithExemplar(0.05, "aaaa")
	h.ObserveWithExemplar(0.5, "bbbb")
	h.ObserveWithExemplar(0.6, "cccc") // replaces bbbb in the same bucket
	h.ObserveWithExemplar(0.7, "")     // empty trace: counted, no exemplar

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if len(s.Exemplars) != len(s.Counts) {
		t.Fatalf("exemplar slots = %d, buckets = %d", len(s.Exemplars), len(s.Counts))
	}
	if s.Exemplars[0] == nil || s.Exemplars[0].TraceID != "aaaa" {
		t.Fatalf("bucket 0 exemplar = %+v", s.Exemplars[0])
	}
	if s.Exemplars[1] == nil || s.Exemplars[1].TraceID != "cccc" {
		t.Fatalf("bucket 1 exemplar should be the latest, got %+v", s.Exemplars[1])
	}
	if s.Exemplars[2] != nil {
		t.Fatalf("+Inf bucket has an exemplar: %+v", s.Exemplars[2])
	}

	// A histogram that never saw an exemplar allocates nothing for them.
	plain := reg.Histogram("mosaic_plain_seconds", "Plain.", []float64{1}, nil)
	plain.Observe(0.5)
	if got := plain.Snapshot().Exemplars; got != nil {
		t.Fatalf("plain histogram carries exemplar slots: %v", got)
	}
}

func TestWriteOpenMetricsGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mosaic_items_total", "Items processed.", Labels{"stage": "decode"}).Add(3)
	reg.Gauge("mosaic_workers", "Live workers.", nil).Set(4)
	h := reg.Histogram("mosaic_latency_seconds", "Latency.", []float64{0.1, 1}, nil)
	h.ObserveWithExemplar(0.05, "0af7651916cd43dd8448eb211c80319c")
	h.Observe(5)

	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	// Counter families drop the _total suffix in metadata but keep it on
	// the sample line; the exposition must terminate with # EOF.
	for _, want := range []string{
		"# TYPE mosaic_items counter\n",
		"mosaic_items_total{stage=\"decode\"} 3\n",
		"# TYPE mosaic_workers gauge\n",
		"# TYPE mosaic_latency_seconds histogram\n",
		"mosaic_latency_seconds_bucket{le=\"+Inf\"} 2\n",
		"mosaic_latency_seconds_count 2\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("OpenMetrics exposition missing %q:\n%s", want, got)
		}
	}
	if !strings.HasSuffix(got, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", got)
	}
	if !strings.Contains(got,
		`mosaic_latency_seconds_bucket{le="0.1"} 1 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 0.05 `) {
		t.Fatalf("bucket exemplar missing or malformed:\n%s", got)
	}
	// Buckets without an exemplar stay bare.
	if strings.Contains(got, `le="1"} 1 #`) {
		t.Fatalf("empty bucket grew an exemplar:\n%s", got)
	}

	// The classic Prometheus exposition never includes exemplar syntax.
	var p strings.Builder
	if err := reg.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.String(), "# {") {
		t.Fatalf("Prometheus 0.0.4 exposition leaked exemplars:\n%s", p.String())
	}
}

// TestFoldCumulative: each bucket's growth since the last fold lands at
// the bucket's midpoint, an infinite edge yields to the finite one, and a
// fold with nothing new observes nothing.
func TestFoldCumulative(t *testing.T) {
	h := NewRegistry().Histogram("fold_seconds", "", []float64{1, 10}, nil)
	inf := math.Inf(1)
	buckets := []float64{-inf, 0.5, 4, 100, inf}
	prev := h.FoldCumulative([]uint64{1, 2, 3, 4}, buckets, nil)
	s := h.Snapshot()
	// midpoints: 0.5 (-Inf edge), 2.25, 52, 100 (+Inf edge)
	if want := []int64{1, 2, 7}; !slices.Equal(s.Counts, want) || s.Count != 10 {
		t.Fatalf("first fold: counts %v (total %d), want %v (total 10)", s.Counts, s.Count, want)
	}
	if want := 1*0.5 + 2*2.25 + 3*52 + 4*100.0; s.Sum != want {
		t.Fatalf("first fold: sum %v, want %v", s.Sum, want)
	}
	prev = h.FoldCumulative([]uint64{1, 2, 3, 4}, buckets, prev)
	prev = h.FoldCumulative([]uint64{1, 2, 3, 6}, buckets, prev)
	if s := h.Snapshot(); s.Count != 12 || s.Counts[2] != 9 {
		t.Fatalf("after two more folds: counts %v (total %d), want +Inf bucket 9 of 12", s.Counts, s.Count)
	}
	if !slices.Equal(prev, []uint64{1, 2, 3, 6}) {
		t.Fatalf("snapshot %v, want the last counts", prev)
	}
}
