package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestOnCollectRunsBeforeExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hook_fired_total", "test", nil)
	calls := 0
	reg.OnCollect("test", func() { calls++; c.Inc() })
	reg.OnCollect("test", func() { t.Fatal("duplicate hook must not replace the first") })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1", calls)
	}
	if !strings.Contains(b.String(), "hook_fired_total 1") {
		t.Fatalf("exposition missing hook-updated value:\n%s", b.String())
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hook_fired_total 2") {
		t.Fatalf("hook not re-run on second exposition:\n%s", b.String())
	}
}

// TestOnCollectConcurrentWithCollect hammers hook registration,
// instrument registration inside hooks, and expositions from multiple
// goroutines — the seam the federation path leans on. Run with -race.
// The exporters start once every registrar has registered its first hook,
// so each worker's hook is there for them to run whatever the scheduler
// does; registration goes on beside the expositions.
func TestOnCollectConcurrentWithCollect(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var registered, registrars, exporters sync.WaitGroup

	for w := 0; w < 4; w++ {
		registered.Add(1)
		registrars.Add(1)
		go func(w int) {
			defer registrars.Done()
			for i := 0; ; i++ {
				if i == 1 {
					registered.Done()
				}
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
	registered.Wait()
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
