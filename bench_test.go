package mosaic_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section IV), plus component-level micro-benchmarks of each
// pipeline stage. The `cmd/mosaic-bench` binary prints the actual
// paper-vs-measured comparison tables; these testing.B targets measure
// the cost of regenerating each artifact and are the entry point
// `go test -bench=.` exercises.
//
//	BenchmarkFig3Funnel              — pre-processing funnel (Figure 3)
//	BenchmarkTable2Periodicity       — periodic write detection (Table II)
//	BenchmarkTable3Temporality       — temporality distribution (Table III)
//	BenchmarkFig4Metadata            — metadata categories (Figure 4)
//	BenchmarkFig5Jaccard             — Jaccard correlation matrix (Figure 5)
//	BenchmarkAccuracySampling        — Section IV-E sampled accuracy
//	BenchmarkPipelineParallel/*      — Section IV-E throughput scaling
//	BenchmarkAblationDetectors       — Mean Shift vs DFT vs autocorrelation

import (
	"context"
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic"
	"github.com/mosaic-hpc/mosaic/internal/benchsuite"
	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/dsp"
	"github.com/mosaic-hpc/mosaic/internal/experiments"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/interval"
	"github.com/mosaic-hpc/mosaic/internal/report"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

const benchApps = 120 // corpus scale for whole-pipeline benches

func benchProfile(seed int64) gen.Profile {
	return experiments.ScaledProfile(seed, benchApps)
}

// benchCorpusRun caches one corpus run across benchmarks that only differ
// in which table they derive.
var benchCR *experiments.CorpusRun

func corpusRun(b *testing.B) *experiments.CorpusRun {
	b.Helper()
	if benchCR == nil {
		cr, err := experiments.Run(benchProfile(1), core.DefaultConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		benchCR = cr
	}
	return benchCR
}

func BenchmarkFig3Funnel(b *testing.B) {
	cr := corpusRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(cr)
		if res.Funnel.Total == 0 {
			b.Fatal("empty funnel")
		}
	}
}

func BenchmarkTable2Periodicity(b *testing.B) {
	cr := corpusRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(cr)
		if res.WriteAll.Periodic <= 0 {
			b.Fatal("no periodic writes detected")
		}
	}
}

func BenchmarkTable3Temporality(b *testing.B) {
	cr := corpusRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(cr)
		if res.ReadSingle.Insignificant == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig4Metadata(b *testing.B) {
	cr := corpusRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4(cr)
		if len(res.All) == 0 {
			b.Fatal("empty distribution")
		}
	}
}

func BenchmarkFig5Jaccard(b *testing.B) {
	cr := corpusRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5(cr)
		if res.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkAccuracySampling(b *testing.B) {
	p := benchProfile(3)
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Accuracy(p, cfg, 64, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Sampled == 0 {
			b.Fatal("nothing sampled")
		}
	}
}

// BenchmarkPipelineParallel measures categorization throughput at several
// worker counts over the same deduplicated corpus (Section IV-E scaling).
func BenchmarkPipelineParallel(b *testing.B) {
	cr := corpusRun(b)
	jobs := make([]*mosaic.Job, 0, len(cr.Results))
	for _, r := range cr.Results {
		// Re-categorize the representative run of each app.
		_ = r
	}
	// Regenerate the representative jobs from the plan to avoid holding
	// results: plan a fresh corpus and take the first run of each app.
	corpus := gen.Plan(benchProfile(1))
	for _, app := range corpus.Apps {
		jobs = append(jobs, corpus.GenerateRun(app, 0).Job)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(itoaB(workers)+"workers", func(b *testing.B) {
			cfg := core.DefaultConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mosaic.CategorizeAll(context.Background(), jobs, mosaic.Options{Config: cfg, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
		})
	}
}

// BenchmarkPipelineDir runs a directory of generated .mosd files through
// the whole engine, the paper's own use; pinned in BENCH_pipeline.json.
func BenchmarkPipelineDir(b *testing.B) {
	b.Run("200files", benchsuite.PipelineDir(200))
}

// BenchmarkCategorizeSingle measures the per-trace pipeline cost on the
// flagship checkpointing trace; BenchmarkCategorizeExplainedSingle the
// same with decision provenance, as mosaic-serve runs it. Both are
// pinned in BENCH_pipeline.json.
func BenchmarkCategorizeSingle(b *testing.B) { benchsuite.CategorizeSingle(b) }

func BenchmarkCategorizeExplainedSingle(b *testing.B) { benchsuite.CategorizeExplainedSingle(b) }

// BenchmarkMerging measures the two merging algorithms (Section III-B2) on
// a heavily desynchronized trace.
func BenchmarkMerging(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ops := make([]interval.Interval, 0, 4096)
	for i := 0; i < 4096; i++ {
		s := rng.Float64() * 86400
		ops = append(ops, interval.Interval{Start: s, End: s + rng.Float64()*120, Bytes: rng.Int63n(1 << 30)})
	}
	pol := interval.DefaultNeighborPolicy()
	work := make([]interval.Interval, len(ops))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, ops)
		if out, _, _ := interval.MergeInPlace(work, 86400, pol); len(out) == 0 {
			b.Fatal("merge lost everything")
		}
	}
}

// BenchmarkMeanShift measures the clustering step on a realistic segment
// population (two interleaved periodic trains plus noise).
func BenchmarkMeanShift(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var ops []interval.Interval
	for i := 0; i < 48; i++ {
		s := float64(i)*300 + rng.Float64()*10
		ops = append(ops, interval.Interval{Start: s, End: s + 15, Bytes: 1 << 30})
	}
	for i := 0; i < 20; i++ {
		s := float64(i)*730 + 50 + rng.Float64()*10
		ops = append(ops, interval.Interval{Start: s, End: s + 10, Bytes: 64 << 30})
	}
	interval.SortByStart(ops)
	segs := segment.Split(ops, 14600)
	cfg := segment.DefaultDetectConfig(14600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := segment.Detect(segs, cfg)
		if err != nil || len(groups) < 2 {
			b.Fatalf("groups=%v err=%v", groups, err)
		}
	}
}

// BenchmarkAblationDetectors compares the cost of the three periodicity
// detectors on the same trace (quality comparison lives in
// cmd/mosaic-bench -exp ablation).
func BenchmarkAblationDetectors(b *testing.B) {
	var ops []interval.Interval
	for i := 0; i < 50; i++ {
		s := float64(i)*100 + 50
		ops = append(ops, interval.Interval{Start: s, End: s + 5, Bytes: 1 << 30})
	}
	const runtime = 5050.0
	b.Run("meanshift", func(b *testing.B) {
		segs := segment.Split(ops, runtime)
		cfg := segment.DefaultDetectConfig(runtime)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g, err := segment.Detect(segs, cfg); err != nil || len(g) == 0 {
				b.Fatal("detection failed")
			}
		}
	})
	b.Run("dft", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !dsp.DetectPeriodicity(ops, runtime, dsp.DetectorConfig{}).Periodic {
				b.Fatal("dft missed")
			}
		}
	})
	b.Run("autocorr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !dsp.DetectByAutocorrelation(ops, runtime, dsp.DetectorConfig{}).Periodic {
				b.Fatal("autocorr missed")
			}
		}
	})
}

// BenchmarkGenerateTrace measures synthetic trace generation, the corpus
// substrate all experiments stand on.
func BenchmarkGenerateTrace(b *testing.B) {
	corpus := gen.Plan(benchProfile(6))
	app := corpus.Apps[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := corpus.GenerateRun(app, i)
		if run.Job == nil {
			b.Fatal("nil job")
		}
	}
}

// BenchmarkStability measures the Section III-B1 stability experiment.
func BenchmarkStability(b *testing.B) {
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Stability(int64(i), 1, 4, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerArchetype) == 0 {
			b.Fatal("no stability data")
		}
	}
}

// Aggregation-only benchmark: how fast the Jaccard matrix digests results.
func BenchmarkAggregatorObserve(b *testing.B) {
	cr := corpusRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := report.NewAggregator()
		for _, r := range cr.Results {
			agg.Add(r.Result, r.Runs)
		}
		if agg.Apps() == 0 {
			b.Fatal("empty aggregator")
		}
	}
	_ = category.All
}

func itoaB(v int) string {
	var b [8]byte
	i := len(b)
	if v == 0 {
		return "0"
	}
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// BenchmarkDXTExperiment measures the hidden-periodicity experiment: the
// Section IV-A caveat quantified with and without extended tracing.
func BenchmarkDXTExperiment(b *testing.B) {
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.DXT(int64(i), 6, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.DXTRecall == 0 {
			b.Fatal("DXT recall zero")
		}
	}
}
