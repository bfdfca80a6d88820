package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// TestCategorizeAllocs is the allocation contract of the categorize
// kernel: on the flagship checkpointer trace (the one
// BenchmarkCategorizeSingle times, ~1 800 write records), with a warm
// scratch, one categorization allocates what it returns and little else.
// Counts do not depend on the host's speed, so this gate holds anywhere.
//
// The figure is the least of several runs, not testing.AllocsPerRun's
// mean: under -race sync.Pool drops a quarter of what is put back, and a
// run that has to regrow its scratch says nothing about the warm path.
func TestCategorizeAllocs(t *testing.T) {
	arch, ok := gen.ArchetypeByName("checkpointer-minute")
	if !ok {
		t.Fatal("checkpointer-minute archetype missing")
	}
	j := archetypeJob(arch, 1)
	cfg := core.DefaultConfig()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool

	for _, mode := range []struct {
		name      string
		run       func() error
		maxAllocs uint64 // as measured; lower it when the count falls
	}{
		{"plain", func() error { _, err := core.Categorize(j, cfg); return err }, 31},
		// 112 as measured; fmt's printer pool misses under -race too,
		// on some Sprintf of every run, which reads as up to 118.
		{"explained", func() error { _, _, err := core.CategorizeExplained(j, cfg, explain.Options{}); return err }, 120},
	} {
		t.Run(mode.name, func(t *testing.T) {
			allocs, bytes := ^uint64(0), ^uint64(0)
			var before, after runtime.MemStats
			for round := 0; round < 20; round++ {
				runtime.ReadMemStats(&before)
				if err := mode.run(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				allocs = min(allocs, after.Mallocs-before.Mallocs)
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%d allocs, %d bytes", allocs, bytes)
			if allocs > mode.maxAllocs {
				t.Errorf("%d allocations per trace, contract is %d", allocs, mode.maxAllocs)
			}
			if bytes > 16<<10 {
				t.Errorf("%d bytes allocated per trace, contract is 16 KB", bytes)
			}
		})
	}
}
