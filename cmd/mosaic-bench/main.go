// Command mosaic-bench regenerates every table and figure of the MOSAIC
// paper's evaluation on the synthetic Blue-Waters-shaped corpus and prints
// paper-vs-measured comparisons.
//
// Usage:
//
//	mosaic-bench [-exp all|fig3|table2|table3|fig4|fig5|accuracy|stability|perf|ablation]
//	             [-apps N] [-seed S] [-workers W] [-sample N]
//
// With -bench-json (and friends) the command instead runs the pinned
// performance benchmark suite (internal/benchsuite) and records or checks
// the BENCH_meanshift.json / BENCH_pipeline.json / BENCH_ingest.json
// baselines:
//
//	mosaic-bench -bench-json .                         # refresh baselines
//	mosaic-bench -bench-json /tmp/b -bench-against . \
//	             -bench-tolerance 0.10 -bench-count 5  # CI regression gate
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"encoding/json"

	"github.com/mosaic-hpc/mosaic/internal/benchio"
	"github.com/mosaic-hpc/mosaic/internal/benchsuite"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/experiments"
	"github.com/mosaic-hpc/mosaic/internal/report"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all, fig3, table2, table3, fig4, fig5, accuracy, stability, perf, ablation, dxt")
		apps     = flag.Int("apps", 1500, "number of unique applications in the synthetic corpus")
		seed     = flag.Int64("seed", 1, "corpus seed")
		workers  = flag.Int("workers", 0, "categorization workers (0 = NumCPU)")
		sample   = flag.Int("sample", 512, "sample size for the accuracy experiment")
		outDir   = flag.String("out", "", "also write machine-readable artifacts (JSON, CSV, PNG figures) to this directory")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON of the shared corpus run to this file")

		benchJSON  = flag.String("bench-json", "", "run the pinned benchmark suite and write BENCH_*.json into this directory (instead of the experiments)")
		benchOld   = flag.String("bench-against", "", "compare the fresh pinned results against the BENCH_*.json baselines in this directory; exit non-zero on a ns/op regression or a rise in allocs/op or B/op")
		benchTol   = flag.Float64("bench-tolerance", 0.10, "allowed fractional ns/op slowdown before -bench-against fails (0.10 = +10%)")
		benchCount = flag.Int("bench-count", 3, "runs per pinned benchmark; the fastest is recorded")
		benchText  = flag.String("bench-text", "", "also write the fresh results in Go benchmark text format (benchstat input)")
		benchBase  = flag.String("bench-baseline-text", "", "convert the committed BENCH_*.json baselines in the current directory to Go benchmark text at this path, without running anything")
	)
	flag.Parse()
	if *benchBase != "" {
		if err := writeBaselineText(*benchBase); err != nil {
			fmt.Fprintln(os.Stderr, "mosaic-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *benchJSON != "" || *benchOld != "" {
		if err := runBench(*benchJSON, *benchOld, *benchTol, *benchCount, *benchText); err != nil {
			fmt.Fprintln(os.Stderr, "mosaic-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *apps, *seed, *workers, *sample, *outDir, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "mosaic-bench:", err)
		os.Exit(1)
	}
}

// writeBaselineText renders the committed baselines as benchstat input so
// CI can print a human-readable old-vs-new table.
func writeBaselineText(path string) error {
	var all []benchio.File
	for _, name := range benchsuite.Files() {
		f, err := benchio.Read(name)
		if err != nil {
			return err
		}
		all = append(all, f)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := benchio.WriteGoBench(out, all...)
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runBench executes the pinned benchmark suite, optionally persisting the
// results (JSON baselines + benchstat text) and gating against committed
// baselines.
func runBench(jsonDir, againstDir string, tol float64, count int, textPath string) error {
	fmt.Printf("pinned benchmark suite: %d targets, best of %d runs each\n\n",
		len(benchsuite.Targets()), count)
	files := benchsuite.Run(count, func(line string) { fmt.Println(line) })

	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
		for _, name := range benchsuite.Files() {
			path := filepath.Join(jsonDir, name)
			if err := benchio.Write(path, files[name]); err != nil {
				return err
			}
			fmt.Printf("\nwrote %s (%d entries)", path, len(files[name].Entries))
		}
		fmt.Println()
	}
	if textPath != "" {
		f, err := os.Create(textPath)
		if err != nil {
			return err
		}
		var ordered []benchio.File
		for _, name := range benchsuite.Files() {
			ordered = append(ordered, files[name])
		}
		werr := benchio.WriteGoBench(f, ordered...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", textPath, werr)
		}
	}
	if againstDir != "" {
		var regs []benchio.Regression
		for _, name := range benchsuite.Files() {
			base, err := benchio.Read(filepath.Join(againstDir, name))
			if err != nil {
				return fmt.Errorf("baseline %s: %w", name, err)
			}
			regs = append(regs, benchio.Compare(base, files[name], tol)...)
		}
		if len(regs) > 0 {
			fmt.Println()
			for _, r := range regs {
				fmt.Println("REGRESSION:", r)
			}
			return fmt.Errorf("%d regression(s): ns/op beyond %.0f%%, or more allocs/op or B/op", len(regs), tol*100)
		}
		fmt.Printf("\nno ns/op regressions beyond %.0f%% and no allocs/op or B/op rise against %s\n", tol*100, againstDir)
	}
	return nil
}

func run(exp string, apps int, seed int64, workers, sample int, outDir, traceOut string) error {
	out := os.Stdout
	cfg := core.DefaultConfig()
	profile := experiments.ScaledProfile(seed, apps)
	want := func(name string) bool { return exp == "all" || exp == name }
	header := func(name string) {
		fmt.Fprintf(out, "\n%s\n%s\n", name, strings.Repeat("=", len(name)))
	}

	// Experiments that need the full corpus run share one; -trace-out
	// forces the run so there are spans to write.
	var cr *experiments.CorpusRun
	needCorpus := want("fig3") || want("table2") || want("table3") || want("fig4") || want("fig5") || traceOut != ""
	if needCorpus {
		var tel *engine.Telemetry
		var obs engine.Observer
		if traceOut != "" {
			tel = engine.NewTelemetry(engine.TelemetryConfig{Spans: true})
			obs = tel
		}
		var err error
		cr, err = experiments.RunObserved(context.Background(), profile, cfg, workers, obs)
		if err != nil {
			return err
		}
		if tel != nil {
			tel.FinishRun()
			if err := tel.WriteTrace(traceOut); err != nil {
				return fmt.Errorf("writing %s: %w", traceOut, err)
			}
			fmt.Fprintf(out, "trace written to %s\n", traceOut)
		}
		fmt.Fprintf(out, "corpus: %d traces / %d valid / %d unique apps — generated+funneled in %v, categorized in %v\n",
			cr.Funnel.Total, cr.Funnel.Valid, cr.Funnel.UniqueApps,
			cr.GenerateTime.Round(time.Millisecond), cr.CategorizeTime.Round(time.Millisecond))
		writeStageBreakdown(out, cr.Stages)
	}

	if want("fig3") {
		header("Figure 3: pre-processing funnel")
		experiments.Fig3(cr).Write(out)
	}
	if want("table2") {
		header("Table II: periodic write detection")
		experiments.Table2(cr).Write(out, cr.Agg)
	}
	if want("table3") {
		header("Table III: access temporality")
		experiments.Table3(cr).Write(out, cr.Agg)
	}
	if want("fig4") {
		header("Figure 4: metadata category distribution")
		experiments.Fig4(cr).Write(out, cr.Agg)
	}
	if want("fig5") {
		header("Figure 5 / Section IV-D: correlations")
		experiments.Fig5(cr).Write(out, cr.Agg)
	}
	if outDir != "" && cr != nil {
		if err := writeArtifacts(outDir, cr); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nartifacts written to %s (export.json, categories.csv, jaccard.csv, apps.csv, heatmap.png, metadata.png, stages.json)\n", outDir)
	}
	if want("accuracy") {
		header("Section IV-E: accuracy (sampled validation)")
		acc, err := experiments.Accuracy(profile, cfg, sample, seed+100)
		if err != nil {
			return err
		}
		acc.Write(out)
	}
	if want("stability") {
		header("Section III-B1: per-application stability")
		st, err := experiments.Stability(seed, 4, 12, cfg)
		if err != nil {
			return err
		}
		st.Write(out)
	}
	if want("perf") {
		header("Section IV-E: performance and scaling")
		counts := []int{1, 2}
		for w := 4; w <= runtime.GOMAXPROCS(0); w *= 2 {
			counts = append(counts, w)
		}
		perfProfile := experiments.ScaledProfile(seed, min(apps, 600))
		pr, err := experiments.Perf(perfProfile, cfg, counts)
		if err != nil {
			return err
		}
		pr.Write(out)
	}
	if want("dxt") {
		header("DXT: hidden periodicity under aggregated tracing (Section IV-A caveat)")
		dx, err := experiments.DXT(seed, 30, cfg)
		if err != nil {
			return err
		}
		dx.Write(out)
	}
	if want("ablation") {
		header("Ablations: merging thresholds, bandwidth, detector comparison")
		ab, err := experiments.Ablation(seed, 40, cfg)
		if err != nil {
			return err
		}
		ab.Write(out)
	}
	return nil
}

// writeStageBreakdown prints the engine's per-stage counters and wall
// times via the renderer shared with `mosaic -progress`, so a perf
// regression in BENCH_*.json runs can be attributed to one stage
// (decode vs categorize throughput, funnel stall, ...).
func writeStageBreakdown(out io.Writer, stages []engine.StageSnapshot) {
	if len(stages) == 0 {
		return
	}
	fmt.Fprintf(out, "pipeline stage breakdown:\n")
	engine.WriteStageTable(out, stages)
}

// writeArtifacts stores the machine-readable outputs of a corpus run:
// the step-4 JSON export, CSV views of the tables, and PNG figures.
func writeArtifacts(dir string, cr *experiments.CorpusRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	apps := make([]report.ExportApp, 0, len(cr.Results))
	for _, r := range cr.Results {
		apps = append(apps, report.ExportApp{Result: r.Result, Runs: r.Runs})
	}
	exp := report.BuildExport(cr.Funnel, apps, cr.Agg, 0.01)
	writers := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"export.json", exp.WriteJSON},
		{"categories.csv", func(w io.Writer) error { return report.WriteCategoriesCSV(w, cr.Agg) }},
		{"jaccard.csv", func(w io.Writer) error { return report.WriteJaccardCSV(w, cr.Agg, 0.01) }},
		{"apps.csv", func(w io.Writer) error { return report.WriteAppsCSV(w, apps) }},
		{"heatmap.png", func(w io.Writer) error { return report.HeatmapPNG(w, cr.Agg, 0.002, 12) }},
		{"metadata.png", func(w io.Writer) error { return report.MetadataBarsPNG(w, cr.Agg) }},
		{"stages.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(cr.Stages)
		}},
	}
	for _, art := range writers {
		f, err := os.Create(filepath.Join(dir, art.name))
		if err != nil {
			return err
		}
		werr := art.fn(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", art.name, werr)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
