package debughttp

import (
	"runtime"
	runtimemetrics "runtime/metrics"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// runtime/metrics sample names the collector reads. Names are resolved
// defensively against the running toolchain's descriptor list: samples
// the runtime does not support are skipped, never assumed.
const (
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmHeapLive    = "/gc/heap/live:bytes"
	rmGoroutines  = "/sched/goroutines:goroutines"
	rmGomaxprocs  = "/sched/gomaxprocs:threads"
	rmGCCycles    = "/gc/cycles/total:gc-cycles"
	rmGCPauses    = "/sched/pauses/total/gc:seconds" // go1.22+
	rmGCPausesOld = "/gc/pauses:seconds"             // pre-1.22 fallback
	rmSchedLat    = "/sched/latencies:seconds"
)

// runtimeBuckets bound the GC-pause and scheduler-latency histograms:
// sub-microsecond runtime internals up to a 100ms+ catch-all.
func runtimeBuckets() []float64 {
	return []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
}

// runtimeCollector bridges runtime/metrics samples into registry
// instruments on every scrape.
type runtimeCollector struct {
	mu      sync.Mutex
	samples []runtimemetrics.Sample

	heapBytes  *telemetry.Gauge
	heapLive   *telemetry.Gauge
	goroutines *telemetry.Gauge
	gomaxprocs *telemetry.Gauge
	gcCycles   *telemetry.Counter
	lastCycles uint64
	gcPause    *telemetry.Histogram
	gcPrev     []uint64
	schedLat   *telemetry.Histogram
	schedPrev  []uint64

	reg      *telemetry.Registry
	buildSet bool
	idx      map[string]int // sample name -> index in samples
}

// RegisterRuntimeMetrics wires a runtime/metrics-backed collector into
// reg via an OnCollect hook, exposing the mosaic_runtime_* family (GC
// pauses, heap bytes, goroutines, scheduler latency, GOMAXPROCS) and a
// mosaic_build_info gauge on every exposition. Registration is
// idempotent per registry.
func RegisterRuntimeMetrics(reg *telemetry.Registry) {
	c := &runtimeCollector{reg: reg, idx: make(map[string]int)}

	supported := make(map[string]bool)
	for _, d := range runtimemetrics.All() {
		supported[d.Name] = true
	}
	add := func(name string) bool {
		if !supported[name] {
			return false
		}
		c.idx[name] = len(c.samples)
		c.samples = append(c.samples, runtimemetrics.Sample{Name: name})
		return true
	}

	if add(rmHeapObjects) {
		c.heapBytes = reg.Gauge("mosaic_runtime_heap_bytes",
			"Bytes of memory occupied by live heap objects plus unswept spans.", nil)
	}
	if add(rmHeapLive) {
		c.heapLive = reg.Gauge("mosaic_runtime_heap_live_bytes",
			"Bytes of heap memory occupied by objects that were live at the last GC.", nil)
	}
	if add(rmGoroutines) {
		c.goroutines = reg.Gauge("mosaic_runtime_goroutines",
			"Current number of live goroutines.", nil)
	}
	if add(rmGomaxprocs) {
		c.gomaxprocs = reg.Gauge("mosaic_runtime_gomaxprocs",
			"Current GOMAXPROCS setting.", nil)
	}
	if add(rmGCCycles) {
		c.gcCycles = reg.Counter("mosaic_runtime_gc_cycles_total",
			"Completed GC cycles.", nil)
	}
	pauseName := rmGCPauses
	if !supported[pauseName] {
		pauseName = rmGCPausesOld
	}
	if add(pauseName) {
		c.idx[rmGCPauses] = c.idx[pauseName] // read under the canonical key
		c.gcPause = reg.Histogram("mosaic_runtime_gc_pause_seconds",
			"Distribution of stop-the-world GC pause durations.", runtimeBuckets(), nil)
	}
	if add(rmSchedLat) {
		c.schedLat = reg.Histogram("mosaic_runtime_sched_latency_seconds",
			"Distribution of goroutine scheduling latencies.", runtimeBuckets(), nil)
	}

	reg.OnCollect("runtime", c.collect)
}

// collect samples the runtime and folds deltas into the instruments.
func (c *runtimeCollector) collect() {
	c.mu.Lock()
	defer c.mu.Unlock()

	if !c.buildSet {
		c.reg.Gauge("mosaic_build_info",
			"Build metadata; value is always 1.",
			telemetry.Labels{"version": telemetry.BuildVersion(), "go": runtime.Version()}).Set(1)
		c.buildSet = true
	}
	if len(c.samples) == 0 {
		return
	}
	runtimemetrics.Read(c.samples)

	if c.heapBytes != nil {
		c.heapBytes.Set(float64(c.samples[c.idx[rmHeapObjects]].Value.Uint64()))
	}
	if c.heapLive != nil {
		c.heapLive.Set(float64(c.samples[c.idx[rmHeapLive]].Value.Uint64()))
	}
	if c.goroutines != nil {
		c.goroutines.Set(float64(c.samples[c.idx[rmGoroutines]].Value.Uint64()))
	}
	if c.gomaxprocs != nil {
		c.gomaxprocs.Set(float64(c.samples[c.idx[rmGomaxprocs]].Value.Uint64()))
	}
	if c.gcCycles != nil {
		cur := c.samples[c.idx[rmGCCycles]].Value.Uint64()
		if cur > c.lastCycles {
			c.gcCycles.Add(int64(cur - c.lastCycles))
		}
		c.lastCycles = cur
	}
	if c.gcPause != nil {
		c.gcPrev = fold(c.gcPause, c.samples[c.idx[rmGCPauses]].Value.Float64Histogram(), c.gcPrev)
	}
	if c.schedLat != nil {
		c.schedPrev = fold(c.schedLat, c.samples[c.idx[rmSchedLat]].Value.Float64Histogram(), c.schedPrev)
	}
}

// fold feeds what a runtime histogram counted since the last collect
// into dst. The first read folds from zero: the runtime counts from
// process start, and so do the histograms, like
// mosaic_runtime_gc_cycles_total beside them.
func fold(dst *telemetry.Histogram, h *runtimemetrics.Float64Histogram, prev []uint64) []uint64 {
	if h == nil {
		return prev
	}
	return dst.FoldCumulative(h.Counts, h.Buckets, prev)
}
