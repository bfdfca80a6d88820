package cluster

import (
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

func TestRegisterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	RegisterMetrics(reg) // idempotent

	// Drive at least one MeanShift run so the totals move.
	pts := []Point{{0, 0}, {0.01, 0}, {1, 1}, {1.01, 1}}
	if _, err := MeanShift(pts, MeanShiftConfig{Bandwidth: 0.1}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"mosaic_cluster_runs_total",
		"mosaic_cluster_seeds_total",
		"mosaic_cluster_shift_iterations_total",
		"mosaic_cluster_grid_cells_total",
		"mosaic_cluster_parallel_runs_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" counter") {
			t.Errorf("exposition missing %s family:\n%s", name, out)
		}
	}
	// The run above must be visible (>= 1; other tests may add more).
	if strings.Contains(out, "mosaic_cluster_runs_total 0\n") {
		t.Errorf("mosaic_cluster_runs_total still zero after a MeanShift run:\n%s", out)
	}
}
