package cluster

import (
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// RegisterMetrics exports the package-wide clustering cost counters (see
// TotalStats) on the registry as mosaic_cluster_* counters. The counters
// are delta-synced by an OnCollect hook right before each exposition, so
// the clustering hot path never touches the registry — it only bumps its
// own atomics. Idempotent per registry.
func RegisterMetrics(reg *telemetry.Registry) {
	runs := reg.Counter("mosaic_cluster_runs_total",
		"Mean Shift invocations.", nil)
	seeds := reg.Counter("mosaic_cluster_seeds_total",
		"Seed trajectories shifted across all Mean Shift runs.", nil)
	iters := reg.Counter("mosaic_cluster_shift_iterations_total",
		"Kernel-mean evaluations across all Mean Shift runs.", nil)
	cells := reg.Counter("mosaic_cluster_grid_cells_total",
		"Occupied spatial-grid cells built across accelerated runs.", nil)
	par := reg.Counter("mosaic_cluster_parallel_runs_total",
		"Mean Shift runs that shifted seeds on multiple goroutines.", nil)

	var mu sync.Mutex
	var last Totals
	reg.OnCollect("cluster", func() {
		mu.Lock()
		defer mu.Unlock()
		t := TotalStats()
		runs.Add(t.Runs - last.Runs)
		seeds.Add(t.Seeds - last.Seeds)
		iters.Add(t.Iterations - last.Iterations)
		cells.Add(t.GridCells - last.GridCells)
		par.Add(t.ParallelRuns - last.ParallelRuns)
		last = t
	})
}
