package experiments

import (
	"bytes"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/report"
)

// smallRun is shared by the table/figure tests; generating the corpus once
// keeps the suite fast.
var (
	smallRunOnce sync.Once
	smallRunVal  *CorpusRun
	smallRunErr  error
)

func smallRun(t *testing.T) *CorpusRun {
	t.Helper()
	smallRunOnce.Do(func() {
		smallRunVal, smallRunErr = Run(ScaledProfile(1, 250), core.DefaultConfig(), 0)
	})
	if smallRunErr != nil {
		t.Fatal(smallRunErr)
	}
	return smallRunVal
}

func TestRunProducesConsistentCounts(t *testing.T) {
	cr := smallRun(t)
	if cr.Funnel.Total == 0 || cr.Funnel.Valid == 0 {
		t.Fatalf("funnel = %+v", cr.Funnel)
	}
	if len(cr.Results) != cr.Funnel.UniqueApps {
		t.Fatalf("results %d != unique apps %d", len(cr.Results), cr.Funnel.UniqueApps)
	}
	if cr.Agg.Apps() != len(cr.Results) {
		t.Fatalf("aggregator apps %d", cr.Agg.Apps())
	}
	if cr.Agg.Runs() != cr.Funnel.Valid {
		t.Fatalf("aggregator runs %d != valid %d", cr.Agg.Runs(), cr.Funnel.Valid)
	}
	for _, r := range cr.Results {
		if r.Result == nil || r.Truth == 0 {
			t.Fatal("missing result or truth")
		}
	}
}

func TestFig3FunnelShape(t *testing.T) {
	res := Fig3(ScaledProfile(2, 300))
	if res.Funnel.CorruptedFraction() < 0.25 || res.Funnel.CorruptedFraction() > 0.40 {
		t.Fatalf("corrupted fraction = %g, not Blue-Waters-shaped", res.Funnel.CorruptedFraction())
	}
	if res.Funnel.UniqueFraction() < 0.04 || res.Funnel.UniqueFraction() > 0.20 {
		t.Fatalf("unique fraction = %g", res.Funnel.UniqueFraction())
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestTable2Shape(t *testing.T) {
	cr := smallRun(t)
	res := Table2(cr)
	// Periodic writes: rare among applications, more common among runs.
	if res.WriteSingle.Periodic > 0.10 {
		t.Fatalf("single-run periodic = %g, should be rare", res.WriteSingle.Periodic)
	}
	if res.WriteAll.Periodic < res.WriteSingle.Periodic {
		t.Fatalf("all-runs periodic (%g) should exceed single-run (%g)",
			res.WriteAll.Periodic, res.WriteSingle.Periodic)
	}
	if res.WriteAll.Periodic < 0.02 || res.WriteAll.Periodic > 0.20 {
		t.Fatalf("all-runs periodic = %g, out of shape", res.WriteAll.Periodic)
	}
}

func TestTable3Shape(t *testing.T) {
	cr := smallRun(t)
	res := Table3(cr)
	// Single-run: insignificant dominates both directions (paper: 85/87%).
	if res.ReadSingle.Insignificant < 0.7 || res.WriteSingle.Insignificant < 0.7 {
		t.Fatalf("single-run insignificant: read %g write %g",
			res.ReadSingle.Insignificant, res.WriteSingle.Insignificant)
	}
	// All-runs: reads happen mostly on start, writes steadily or on end.
	if res.ReadAll.OnStart < res.ReadSingle.OnStart {
		t.Fatal("read on start should grow in the all-runs view")
	}
	if res.WriteAll.Steady < 0.15 {
		t.Fatalf("all-runs write steady = %g", res.WriteAll.Steady)
	}
	// Rows are distributions: every bucket within [0,1], sums ~<= 1.
	for _, row := range []struct{ r report.TemporalityRow }{
		{res.ReadSingle}, {res.ReadAll}, {res.WriteSingle}, {res.WriteAll},
	} {
		sum := row.r.Insignificant + row.r.OnStart + row.r.OnEnd + row.r.Steady + row.r.Others
		if sum < 0.9 || sum > 1.05 {
			t.Fatalf("temporality row does not sum to ~1: %+v (sum %g)", row.r, sum)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	cr := smallRun(t)
	res := Fig4(cr)
	// The all-runs view must be more metadata-intensive than single-run
	// (a few heavy apps run very often).
	if res.All[category.MetaHighSpike] <= res.Single[category.MetaHighSpike] {
		t.Fatalf("high spike: all %g <= single %g",
			res.All[category.MetaHighSpike], res.Single[category.MetaHighSpike])
	}
	if res.All[category.MetaHighSpike] < 0.3 {
		t.Fatalf("all-runs high spike = %g, out of shape", res.All[category.MetaHighSpike])
	}
}

func TestFig5Correlations(t *testing.T) {
	cr := smallRun(t)
	res := Fig5(cr)
	if res.Corr.ReadStartWritesEnd < 0.4 || res.Corr.ReadStartWritesEnd > 0.9 {
		t.Fatalf("P(we|rs) = %g, paper says 66%%", res.Corr.ReadStartWritesEnd)
	}
	if res.Corr.InsigReadAlsoInsigWrite < 0.7 {
		t.Fatalf("P(wi|ri) = %g, paper says 95%%", res.Corr.InsigReadAlsoInsigWrite)
	}
	if res.Corr.PeriodicWriteLowBusy < 0.8 {
		t.Fatalf("P(low|periodic) = %g, paper says 96%%", res.Corr.PeriodicWriteLowBusy)
	}
	if res.Pairs == 0 {
		t.Fatal("no Jaccard pairs above 1%")
	}
}

func TestAccuracyMeetsPaper(t *testing.T) {
	res, err := Accuracy(ScaledProfile(3, 250), core.DefaultConfig(), 256, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled < 200 {
		t.Fatalf("sampled only %d traces", res.Sampled)
	}
	if res.Accuracy < res.PaperAccuracy {
		t.Fatalf("accuracy %.2f below the paper's %.2f", res.Accuracy, res.PaperAccuracy)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestStabilityHigh(t *testing.T) {
	res, err := Stability(7, 2, 6, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range res.PerArchetype {
		if v < 0.8 {
			t.Errorf("archetype %s stability %.2f < 0.8", name, v)
		}
	}
}

func TestPerfScales(t *testing.T) {
	res, err := Perf(ScaledProfile(4, 120), core.DefaultConfig(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workers) != 2 || res.Apps == 0 {
		t.Fatalf("perf result = %+v", res)
	}
	if res.Speedup[0] != 1 {
		t.Fatalf("base speedup = %g", res.Speedup[0])
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestAblationDetectorComparison(t *testing.T) {
	res, err := Ablation(5, 12, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// All detectors find simple periodicity.
	if res.DetectorRecall["meanshift"] < 0.9 {
		t.Fatalf("meanshift recall = %g", res.DetectorRecall["meanshift"])
	}
	// Only segmentation+clustering identifies BOTH of two interleaved
	// periodic operations — the paper's argument against pure frequency
	// techniques.
	if res.DetectorMixed["meanshift"] < 0.8 {
		t.Fatalf("meanshift mixed = %g", res.DetectorMixed["meanshift"])
	}
	if res.DetectorMixed["dft"] > 0 || res.DetectorMixed["autocorr"] > 0 {
		t.Fatalf("frequency detectors cannot report two periods: dft=%g autocorr=%g",
			res.DetectorMixed["dft"], res.DetectorMixed["autocorr"])
	}
	// Iterative spectral peeling narrows the gap but stays below the
	// segmentation detector (overlapping harmonics, volume blindness).
	if iter := res.DetectorMixed["dft-iter"]; iter <= 0 || iter >= res.DetectorMixed["meanshift"] {
		t.Fatalf("dft-iter mixed = %g, expected strictly between 0 and meanshift's %g",
			iter, res.DetectorMixed["meanshift"])
	}
	// Aggressive neighbor merging destroys periodicity.
	if res.MergeSweep["rf=0.1"] >= res.MergeSweep["rf=0.001 (paper)"] {
		t.Fatalf("merge sweep did not show degradation: %v", res.MergeSweep)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}
