package experiments

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/report"
)

// Each shared run happens at most once per test binary.
var (
	smallRun = onceRun(func() (*CorpusRun, error) {
		return Run(ScaledProfile(2, 300), core.DefaultConfig(), 0)
	})
	// paperRun is the corpus behind experiments_output.txt
	// (mosaic-bench -exp all -apps 1500 -seed 1), shared by the table
	// and figure tests and the golden.
	paperRun = onceRun(func() (*CorpusRun, error) {
		return Run(ScaledProfile(1, 1500), core.DefaultConfig(), 0)
	})
	// paperAccuracy is that file's accuracy experiment: mosaic-bench
	// samples 512 traces with seed+100.
	paperAccuracy = onceRun(func() (*AccuracyResult, error) {
		return Accuracy(ScaledProfile(1, 1500), core.DefaultConfig(), 512, 101)
	})
)

func onceRun[T any](fn func() (T, error)) func(*testing.T) T {
	once := sync.OnceValues(fn)
	return func(t *testing.T) T {
		t.Helper()
		v, err := once()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// TestPaperGolden holds every paper table and figure this package
// derives to the archived run, byte for byte: each section of
// experiments_output.txt below is what its experiment writes over the
// 20,764-trace corpus. Only the timing lines of that file (the corpus
// header, the stage breakdown, the performance section) are free.
func TestPaperGolden(t *testing.T) {
	archived, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	cr, acc := paperRun(t), paperAccuracy(t)
	for _, sec := range []struct {
		title string
		write func(io.Writer)
	}{
		{"Figure 3: pre-processing funnel", func(w io.Writer) { Fig3(cr).Write(w) }},
		{"Table II: periodic write detection", func(w io.Writer) { Table2(cr).Write(w, cr.Agg) }},
		{"Table III: access temporality", func(w io.Writer) { Table3(cr).Write(w, cr.Agg) }},
		{"Figure 4: metadata category distribution", func(w io.Writer) { Fig4(cr).Write(w, cr.Agg) }},
		{"Figure 5 / Section IV-D: correlations", func(w io.Writer) { Fig5(cr).Write(w, cr.Agg) }},
		{"Section IV-E: accuracy (sampled validation)", acc.Write},
	} {
		want, ok := section(string(archived), sec.title)
		if !ok {
			t.Errorf("experiments_output.txt has no section %q", sec.title)
			continue
		}
		var got strings.Builder
		sec.write(&got)
		if got.String() != want {
			t.Errorf("section %q differs from experiments_output.txt\n--- got\n%s--- archived\n%s", sec.title, got.String(), want)
		}
	}
}

// section returns the body of a titled section of mosaic-bench's
// output: the lines after the title and its underline, up to the blank
// line that opens the next section.
func section(out, title string) (string, bool) {
	head := "\n" + title + "\n" + strings.Repeat("=", len(title)) + "\n"
	i := strings.Index(out, head)
	if i < 0 {
		return "", false
	}
	body := out[i+len(head):]
	if j := strings.Index(body, "\n\n"); j >= 0 {
		body = body[:j+1]
	}
	return body, true
}

// TestEngineFunnelEqualsPreprocessor shows that the funnel a corpus run
// reports, which Figure 3 prints, is what a Preprocessor counts over
// the same corpus on its own.
func TestEngineFunnelEqualsPreprocessor(t *testing.T) {
	cr := smallRun(t)
	pre := core.NewPreprocessor()
	gen.Plan(cr.Profile).Each(func(r gen.Run) bool {
		pre.Add(r.Job, nil)
		return true
	})
	want := pre.Stats()
	if got := cr.Funnel; !reflect.DeepEqual(got, want) {
		t.Fatalf("engine funnel %+v\npreprocessor  %+v", got, want)
	}
}

// TestCategorizeTimeIsItsOwn: categorization of the kept runs starts
// when the funnel has decided, so its time is not the whole run's.
func TestCategorizeTimeIsItsOwn(t *testing.T) {
	cr := smallRun(t)
	if cr.GenerateTime <= 0 || cr.CategorizeTime >= cr.GenerateTime {
		t.Fatalf("generated+funneled in %v, categorized in %v: categorization should be the smaller part",
			cr.GenerateTime, cr.CategorizeTime)
	}
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
	res := Fig3(paperRun(t))
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
	cr := paperRun(t)
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
	cr := paperRun(t)
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
	cr := paperRun(t)
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
	cr := paperRun(t)
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
	res := paperAccuracy(t)
	if res.Sampled < 500 {
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
