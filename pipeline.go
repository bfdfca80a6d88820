package mosaic

import (
	"context"
	"io"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/parallel"
	"github.com/mosaic-hpc/mosaic/internal/report"
)

// Options configures the corpus pipeline. The pipeline exists exactly
// once, as the staged stream Scan → Decode → Funnel → Categorize →
// Aggregate in internal/engine; the entry points below are thin
// wrappers over it.
type Options struct {
	// Config holds the detection thresholds; a zero value (Config.IsZero)
	// selects DefaultConfig. Normalization happens once, at the engine
	// boundary.
	Config Config
	// Workers is the decode/categorization parallelism (<= 0: one per CPU).
	Workers int
}

func (o Options) engine() engine.Options {
	return engine.Options{Config: o.Config, Workers: o.Workers}
}

// AppResult pairs an application's categorization with its execution
// count, the unit of the "all runs" statistics.
type AppResult struct {
	Result *Result `json:"result"`
	Runs   int     `json:"runs"`
}

// Analysis is the outcome of a corpus run: the pre-processing funnel, one
// result per deduplicated application, and the aggregate distributions.
type Analysis struct {
	Funnel    FunnelStats
	Apps      []AppResult
	Aggregate *Aggregator
}

func fromEngine(r *engine.Result) *Analysis {
	if r == nil {
		return nil
	}
	apps := make([]AppResult, len(r.Apps))
	for i, a := range r.Apps {
		apps[i] = AppResult{Result: a.Result, Runs: a.Runs}
	}
	return &Analysis{Funnel: r.Funnel, Apps: apps, Aggregate: r.Agg}
}

// AnalyzeJobsContext runs the full pipeline over in-memory traces:
// funnel (validation + deduplication), parallel categorization of each
// application's heaviest run, and aggregation. Cancelling ctx stops
// in-flight work promptly and returns the context's error.
func AnalyzeJobsContext(ctx context.Context, jobs []*Job, opt Options) (*Analysis, error) {
	res, err := engine.Run(ctx, engine.Jobs(jobs), opt.engine())
	return fromEngine(res), err
}

// AnalyzeCorpusContext streams every trace under dir through the
// pipeline: paths are scanned and decoded concurrently with
// categorization, bounded channels keep memory flat, and cancelling ctx
// drains every stage without goroutine leaks. Decode failures count as
// corrupted traces, like damaged logs in the Blue Waters dataset.
func AnalyzeCorpusContext(ctx context.Context, dir string, opt Options) (*Analysis, error) {
	res, err := engine.Run(ctx, engine.Dir(dir), opt.engine())
	return fromEngine(res), err
}

// CategorizeAll runs Categorize over many traces in parallel, preserving
// input order. Invalid traces yield a nil Result (with validation applied
// first); pipeline errors abort, and cancellation stops remaining work
// promptly.
func CategorizeAll(ctx context.Context, jobs []*Job, opt Options) ([]*Result, error) {
	cfg := opt.Config.Normalized()
	out := make([]*Result, len(jobs))
	var mu sync.Mutex
	var firstErr error
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Worker defaulting lives in parallel.DefaultWorkers (via ForEachCtx);
	// cancellation — external or fail-fast — stops dispatch promptly.
	perr := parallel.ForEachCtx(ctx, opt.Workers, len(jobs), func(i int) {
		if err := darshan.Validate(jobs[i]); err != nil {
			return // corrupted: nil result
		}
		res, err := Categorize(jobs[i], cfg)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
				cancel() // fail fast: stop remaining categorizations
			}
			mu.Unlock()
			return
		}
		out[i] = res
	})
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	if perr != nil {
		return nil, perr
	}
	return out, nil
}

// WriteReport renders the complete text report of an analysis: funnel,
// periodicity and temporality tables, metadata distribution, correlations
// and the Jaccard pair list.
func (a *Analysis) WriteReport(w io.Writer) { report.WriteReport(w, a.Funnel, a.Aggregate) }

// Explain renders the detection walkthrough of one result — merged
// operation counts, per-chunk volumes, periodic groups and metadata rates
// (the Figure 2 view of the paper).
func Explain(w io.Writer, res *Result) { report.WriteResult(w, res) }

// WriteTimeline renders the ASCII timeline of one trace — raw vs merged
// operations, periodic groups, and chunk volumes (the Figure 2 view).
func WriteTimeline(w io.Writer, j *Job, res *Result, cfg Config) {
	report.WriteTimeline(w, j, res, cfg)
}
