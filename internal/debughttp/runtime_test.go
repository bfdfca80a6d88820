package debughttp

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterRuntimeMetrics(reg)

	// Force some runtime activity so gauges are non-trivial.
	runtime.GC()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"mosaic_runtime_heap_bytes",
		"mosaic_runtime_goroutines",
		"mosaic_runtime_gomaxprocs",
		"mosaic_runtime_gc_cycles_total",
		"mosaic_runtime_gc_pause_seconds_bucket",
		"mosaic_runtime_sched_latency_seconds_bucket",
		"mosaic_build_info",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s:\n%s", want, out)
		}
	}

	// Sanity: goroutines gauge reflects a live process.
	if g := reg.Gauge("mosaic_runtime_goroutines", "", nil).Value(); g < 1 {
		t.Errorf("goroutines gauge = %v", g)
	}
	if g := reg.Gauge("mosaic_runtime_gomaxprocs", "", nil).Value(); g < 1 {
		t.Errorf("gomaxprocs gauge = %v", g)
	}
}

// TestRuntimeHistogramsCountFromStart: the first collect folds what the
// runtime counted since the process started, as the GC cycle counter
// does, instead of taking it as a baseline and dropping it.
func TestRuntimeHistogramsCountFromStart(t *testing.T) {
	runtime.GC()
	reg := telemetry.NewRegistry()
	RegisterRuntimeMetrics(reg)
	if err := reg.WritePrometheus(io.Discard); err != nil { // runs the collectors
		t.Fatal(err)
	}
	pauses := reg.Histogram("mosaic_runtime_gc_pause_seconds", "", nil, nil).Snapshot().Count
	cycles := reg.Counter("mosaic_runtime_gc_cycles_total", "", nil).Value()
	if cycles < 1 || pauses < 1 {
		t.Fatalf("first collect after runtime.GC: %d GC cycles, %d pauses; want both counted from process start", cycles, pauses)
	}
	if n := reg.Histogram("mosaic_runtime_sched_latency_seconds", "", nil, nil).Snapshot().Count; n < 1 {
		t.Fatalf("first collect: %d scheduling latencies, want those since process start", n)
	}
}

func TestBuildInfoGaugeCarriesVersion(t *testing.T) {
	telemetry.SetBuildVersion("9.9.9-test")
	defer telemetry.SetBuildVersion("")

	reg := telemetry.NewRegistry()
	RegisterRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `version="9.9.9-test"`) {
		t.Fatalf("build info missing version label:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("go=%q", runtime.Version())) {
		t.Fatalf("build info missing go label:\n%s", out)
	}
}

func TestRegisterRuntimeMetricsIdempotent(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterRuntimeMetrics(reg)
	RegisterRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "# TYPE mosaic_runtime_goroutines "); n != 1 {
		t.Fatalf("duplicate runtime families after double registration (%d)", n)
	}
}
