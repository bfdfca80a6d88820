// Command mosaic categorizes Darshan-like I/O traces.
//
// Usage:
//
//	mosaic [flags] <trace-file-or-corpus-dir>
//
// Given a single trace file, it prints the trace's categories (and, with
// -explain, the decision-provenance rule trace: every threshold
// comparison the detectors evaluated, with pass/fail outcomes and
// near-misses; -explain-json writes the same record as JSON and
// -explain-margin tunes the near-miss margin). Given a directory, it
// streams the corpus through the staged
// engine — scan, decode, validation, deduplication, categorization — and
// prints the aggregate report (funnel, Tables II/III, Figures 4/5). With
// -json, per-trace results are written as a JSON array to the given
// file, the paper's step (4).
//
// Corpus runs are cancellable: Ctrl-C (SIGINT), SIGTERM or -timeout
// drains every pipeline stage cleanly, and -progress shows live
// per-stage counters fed by the engine's observer. A single-trace or
// -convert run installs no signal handler: a signal ends it at once.
//
// Corpus runs are also observable: -trace-out writes a Chrome
// trace-event JSON of every trace's journey through the pipeline
// (openable in Perfetto / chrome://tracing), -slow K reports the K
// slowest traces per stage, and -log-level/-log-format control
// structured diagnostics (at info or debug, the engine's stage lifecycle
// lines).
//
// The command opens no socket: it imports the domain packages directly,
// not the library facade, so it links no network stack and builds as a
// static binary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/report"
	"github.com/mosaic-hpc/mosaic/internal/store"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

func main() {
	var (
		explainTx = flag.Bool("explain", false, "print the decision-provenance rule trace for a single trace (why every category was or wasn't assigned)")
		explainJS = flag.String("explain-json", "", "write the decision-provenance record as JSON to this file ('-' = stdout; single trace)")
		explainM  = flag.Float64("explain-margin", explain.DefaultMargin, "near-miss margin for explanation evidence, as a fraction of each threshold")
		jsonOut   = flag.String("json", "", "write per-trace results as JSON to this file")
		workers   = flag.Int("workers", 0, "parallel categorization workers (0 = NumCPU)")
		sigMB     = flag.Int64("significance-mb", 100, "significance threshold in MB for read/write volumes")
		chunks    = flag.Int("chunks", 4, "number of temporal chunks")
		bw        = flag.Float64("bandwidth", 0.05, "Mean Shift bandwidth for periodicity detection")
		spikeHi   = flag.Float64("spike-high", 250, "metadata high-spike threshold (req/s)")
		spike     = flag.Float64("spike", 50, "metadata spike threshold (req/s)")
		heatmap   = flag.Bool("heatmap", false, "also print the Jaccard heatmap grid (corpus mode)")
		timeline  = flag.Bool("timeline", false, "print an ASCII timeline of a single trace (Figure 2 view)")
		convert   = flag.String("convert", "", "convert a single trace to this path (.mosd, .json or .txt) and exit")
		anonSalt  = flag.String("anonymize", "", "when converting, anonymize identities with this salt")
		timeout   = flag.Duration("timeout", 0, "abort a corpus run after this duration (0 = no limit; a single-trace run never reads it)")
		progress  = flag.Bool("progress", false, "print live per-stage pipeline progress to stderr (corpus mode)")
		storeDir  = flag.String("store", "", "warm-start categorization from this result store directory (corpus mode; created when missing)")

		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON of the corpus run to this file (open in Perfetto / chrome://tracing)")
		slowK     = flag.Int("slow", 0, "print the K slowest traces per stage after a corpus run (0 = off)")
		logLevel  = flag.String("log-level", "warn", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mosaic [flags] <trace-file | corpus-dir>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := core.DefaultConfig()
	cfg.SignificanceBytes = *sigMB << 20
	cfg.ChunkCount = *chunks
	cfg.MeanShiftBandwidth = *bw
	cfg.SpikeHighRate = *spikeHi
	cfg.SpikeRate = *spike

	log, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mosaic:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	so := singleOpts{
		explain:       *explainTx,
		explainJSON:   *explainJS,
		explainMargin: *explainM,
		jsonOut:       *jsonOut,
		timeline:      *timeline,
	}
	err = run(ctx, flag.Arg(0), cfg, *workers, so, *jsonOut, *heatmap, *convert, *anonSalt, corpusOpts{
		progress: *progress,
		traceOut: *traceOut,
		slowK:    *slowK,
		storeDir: *storeDir,
		log:      log,
	})
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "mosaic: interrupted")
		os.Exit(130)
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "mosaic: timeout exceeded")
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "mosaic:", err)
		os.Exit(1)
	}
}

// singleOpts bundles the single-trace rendering knobs.
type singleOpts struct {
	explain       bool    // print the decision-provenance rule trace
	explainJSON   string  // write the Explanation JSON here ("-" = stdout)
	explainMargin float64 // near-miss margin for evidence collection
	jsonOut       string  // write the Result JSON array here
	timeline      bool    // print the ASCII timeline
}

// corpusOpts bundles the observability knobs of a corpus run.
type corpusOpts struct {
	progress bool
	traceOut string // Chrome trace-event JSON output path
	slowK    int    // slowest-traces-per-stage report size
	storeDir string // warm-start result store directory
	log      *slog.Logger
}

// telemetryEnabled reports whether any knob needs a telemetry bundle: a
// trace or slow-log report, or a logger that would print the bundle's
// run summary (info) and stage lifecycle lines (debug).
func (o corpusOpts) telemetryEnabled() bool {
	return o.traceOut != "" || o.slowK > 0 || o.log != nil && o.log.Enabled(context.Background(), slog.LevelInfo)
}

func run(ctx context.Context, target string, cfg core.Config, workers int, so singleOpts, jsonOut string, heatmap bool, convert, anonSalt string, co corpusOpts) error {
	info, err := os.Stat(target)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return runCorpus(ctx, target, cfg, workers, jsonOut, heatmap, co)
	}
	if convert != "" {
		return runConvert(target, convert, anonSalt)
	}
	return runSingle(target, cfg, so)
}

// runConvert re-encodes a trace into the format selected by the output
// extension (binary .mosd, .json, or darshan-parser-style .txt).
func runConvert(in, out, anonSalt string) error {
	job, err := darshan.ReadFile(in)
	if err != nil {
		return err
	}
	if anonSalt != "" {
		darshan.NewAnonymizer(anonSalt).Job(job)
	}
	if err := darshan.WriteFile(out, job); err != nil {
		return err
	}
	fmt.Printf("converted %s -> %s (%d records)\n", in, out, len(job.Records))
	return nil
}

func runSingle(path string, cfg core.Config, so singleOpts) error {
	job, err := darshan.ReadFile(path)
	if err != nil {
		return err
	}
	if err := darshan.Validate(job); err != nil {
		return fmt.Errorf("trace is corrupted and would be evicted: %w", err)
	}
	var res *core.Result
	var expl *explain.Explanation
	if so.explain || so.explainJSON != "" {
		// Provenance requested: collect evidence alongside the labels.
		// Labels are guaranteed identical to the plain Categorize path.
		res, expl, err = core.CategorizeExplained(job, cfg,
			explain.Options{Margin: so.explainMargin})
	} else {
		res, err = core.Categorize(job, cfg)
	}
	if err != nil {
		return err
	}
	if so.timeline {
		report.WriteTimeline(os.Stdout, job, res, cfg)
	}
	switch {
	case so.explain:
		explain.Render(os.Stdout, expl)
	case so.explainJSON == "-" || so.timeline:
		// stdout is reserved for the requested artifact.
	default:
		fmt.Printf("%s: ", path)
		for i, l := range res.Labels {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(l)
		}
		fmt.Println()
	}
	if so.explainJSON != "" {
		if err := writeExplanationJSON(so.explainJSON, expl); err != nil {
			return err
		}
	}
	if so.jsonOut != "" {
		return writeJSON(so.jsonOut, []*core.Result{res})
	}
	return nil
}

// writeExplanationJSON writes the provenance record as indented JSON to
// path, or to stdout when path is "-".
func writeExplanationJSON(path string, e *explain.Explanation) error {
	var w io.Writer = os.Stdout
	var f *os.File
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	werr := enc.Encode(e)
	if f != nil {
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
	}
	return werr
}

// preludeNote says on stderr why a corpus run takes a second pass: a run
// the funnel kept has a prelude that is not the summary of its body, and
// the engine starts over with no prelude believed.
type preludeNote struct{ engine.NopObserver }

func (preludeNote) ItemError(_ engine.StageID, err error) {
	if errors.Is(err, darshan.ErrPreludeMismatch) {
		fmt.Fprintf(os.Stderr, "mosaic: %v; every file is read in full from here on\n", err)
	}
}

func runCorpus(ctx context.Context, dir string, cfg core.Config, workers int, jsonOut string, heatmap bool, co corpusOpts) error {
	// SIGINT/SIGTERM cancel the pipeline context: the engine drains its
	// stages and the process exits cleanly instead of mid-write. Only a
	// corpus run catches them; the handler's threads would cost a
	// single-trace run more than its categorization, and there the
	// default disposition ends the process at once.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := engine.Options{Config: cfg, Workers: workers, Observer: preludeNote{}}

	// -store warm-starts categorization: results cached under this
	// config's fingerprint are read back instead of recomputed, and
	// fresh ones are persisted for the next run.
	if co.storeDir != "" {
		st, err := store.Open(co.storeDir, store.Options{})
		if err != nil {
			return fmt.Errorf("opening result store: %w", err)
		}
		defer func() {
			s := st.Stats()
			fmt.Fprintf(os.Stderr, "store %s: %d results served warm, %d categorized cold (fingerprint %s)\n",
				co.storeDir, s.Hits, s.Misses, cfg.Fingerprint())
			st.Close()
		}()
		opt.Executor = warmExec{Local: engine.Local{Workers: workers}, st: st}
	}

	var tel *engine.Telemetry
	var stats *engine.Stats
	if co.telemetryEnabled() {
		tel = engine.NewTelemetry(engine.TelemetryConfig{
			Spans:  co.traceOut != "",
			SlowK:  co.slowK,
			Logger: co.log,
		})
		stats = tel.Stats() // one collector feeds progress and the bundle
		opt.Observer = engine.MultiObserver(opt.Observer, tel)
	} else if co.progress {
		stats = engine.NewStats()
		opt.Observer = engine.MultiObserver(stats, opt.Observer)
	}

	var stopProgress func()
	if co.progress {
		stopProgress = startProgress(stats)
	}
	res, err := engine.Run(ctx, engine.Dir(dir), opt)
	if tel != nil {
		tel.FinishRun()
	}
	if stopProgress != nil {
		stopProgress()
		fmt.Fprintln(os.Stderr, "pipeline stage breakdown:")
		stats.WriteTable(os.Stderr)
	}
	if tel != nil {
		if werr := writeCorpusTelemetry(tel, co); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	report.WriteReport(os.Stdout, res.Funnel, res.Agg)
	if heatmap {
		fmt.Println()
		report.WriteHeatmap(os.Stdout, res.Agg, 0.005)
	}
	if jsonOut != "" {
		results := make([]*core.Result, 0, len(res.Apps))
		for _, a := range res.Apps {
			results = append(results, a.Result)
		}
		return writeJSON(jsonOut, results)
	}
	return nil
}

// writeCorpusTelemetry flushes post-run telemetry artifacts: the Chrome
// trace-event JSON (-trace-out) and the slowest-traces report (-slow).
func writeCorpusTelemetry(tel *engine.Telemetry, co corpusOpts) error {
	if co.traceOut != "" {
		if err := tel.WriteTrace(co.traceOut); err != nil {
			return fmt.Errorf("writing %s: %w", co.traceOut, err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in Perfetto or chrome://tracing)\n", co.traceOut)
	}
	if co.slowK > 0 {
		for _, stage := range []string{"decode", "funnel", "categorize"} {
			entries := tel.Slow().Slowest(stage)
			if len(entries) == 0 {
				continue
			}
			fmt.Fprintf(os.Stderr, "slowest in %s:\n", stage)
			for _, e := range entries {
				fmt.Fprintf(os.Stderr, "  %12v  %s\n", e.Dur.Round(time.Microsecond), e.Name)
			}
		}
	}
	return nil
}

// startProgress renders the per-stage counters of a running pipeline to
// stderr a few times per second; the returned stop function prints the
// final line and ends the refresher.
func startProgress(stats *engine.Stats) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "\r\033[K%s", stats.String())
			case <-done:
				fmt.Fprintf(os.Stderr, "\r\033[K%s\n", stats.String())
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func writeJSON(path string, results []*core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(results)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
