package telemetry

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
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
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	reg.runCollectors()
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
	SetBuildVersion("9.9.9-test")
	defer buildVersion.Store("")

	reg := NewRegistry()
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
	reg := NewRegistry()
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

// TestOnCollectConcurrentWithCollect hammers hook registration,
// instrument registration inside hooks, and expositions from multiple
// goroutines — the seam the federation path leans on. Run with -race.
func TestOnCollectConcurrentWithCollect(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var registrars, exporters sync.WaitGroup

	for w := 0; w < 4; w++ {
		registrars.Add(1)
		go func(w int) {
			defer registrars.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("hook-%d-%d", w, i%10)
				reg.OnCollect(name, func() {
					reg.Counter("m_hook_total", "", Labels{"w": fmt.Sprintf("%d", w)}).Inc()
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		exporters.Add(1)
		go func() {
			defer exporters.Done()
			for i := 0; i < 100; i++ {
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				reg.Export()
			}
		}()
	}

	exporters.Wait()
	close(stop)
	registrars.Wait()

	if reg.Counter("m_hook_total", "", Labels{"w": "0"}).Value() == 0 {
		t.Fatal("hooks never ran during concurrent expositions")
	}
}
