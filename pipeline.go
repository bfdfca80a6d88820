package mosaic

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/debughttp"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/parallel"
	"github.com/mosaic-hpc/mosaic/internal/report"
	"github.com/mosaic-hpc/mosaic/internal/store"
	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

// Engine types, re-exported. The corpus pipeline exists exactly once, as
// the staged stream Scan → Decode → Funnel → Categorize → Aggregate in
// internal/engine; every entry point below is a thin wrapper over it.
type (
	// ErrorPolicy selects fail-fast vs collect-all error handling.
	ErrorPolicy = engine.ErrorPolicy
	// Observer receives per-stage pipeline events.
	Observer = engine.Observer
	// StageStats is the built-in Observer collecting per-stage counters
	// and timings; safe to snapshot while the pipeline runs.
	StageStats = engine.Stats
	// StageSnapshot is the point-in-time view of one stage's counters.
	StageSnapshot = engine.StageSnapshot
	// StageID names one pipeline stage.
	StageID = engine.StageID
	// SpanObserver is the optional Observer extension receiving one
	// completed span per item per stage.
	SpanObserver = engine.SpanObserver
	// Telemetry bundles the metrics registry, the run's span trace, the
	// slow-trace log and a structured logger behind one pipeline
	// observer; pass it as Options.Telemetry (see NewTelemetry).
	Telemetry = engine.Telemetry
	// TelemetryConfig selects which telemetry components to enable.
	TelemetryConfig = engine.TelemetryConfig
	// MetricsRegistry is the concurrent-safe metrics registry with
	// Prometheus text exposition backing a Telemetry bundle.
	MetricsRegistry = telemetry.Registry
)

// NewTelemetry builds a telemetry bundle: engine metrics registered
// eagerly, optional span recording (Telemetry.WriteTrace) and slow-trace
// log, optional slog output. Wire it via Options.Telemetry; serve its
// registry with StartDebugServer.
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return engine.NewTelemetry(cfg) }

// DebugServer is a running introspection HTTP server (see
// StartDebugServer).
type DebugServer = debughttp.Server

// StartDebugServer serves the bundle's /metrics, /healthz,
// /debug/engine and /debug/pprof endpoints on addr (":0" picks a free
// port; Addr() reports it) in a background goroutine. /debug/engine is
// the live per-stage snapshot plus the slowest items per stage, as JSON.
func StartDebugServer(addr string, t *Telemetry) (*DebugServer, error) {
	return debughttp.StartServer(addr, t.Registry(), t.Logger(), debughttp.Route{
		Pattern: "/debug/engine",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			debughttp.WriteJSON(w, http.StatusOK, struct {
				Stages []StageSnapshot               `json:"stages"`
				Slow   map[string][]engine.SlowEntry `json:"slow,omitempty"`
			}{t.Stats().Snapshot(), t.Slow().Snapshot()})
		}),
	})
}

// MultiObserver fans pipeline events out to several observers in
// argument order (per-item spans are forwarded to those implementing
// SpanObserver).
func MultiObserver(obs ...Observer) Observer { return engine.MultiObserver(obs...) }

// Error policies.
const (
	// FailFast cancels in-flight work on the first error (default).
	FailFast = engine.FailFast
	// CollectAll skips failed apps and returns every error via errors.Join.
	CollectAll = engine.CollectAll
)

// Pipeline stage identifiers.
const (
	StageScan       = engine.StageScan
	StageDecode     = engine.StageDecode
	StageFunnel     = engine.StageFunnel
	StageCategorize = engine.StageCategorize
	StageAggregate  = engine.StageAggregate
)

// NewStageStats returns an empty per-stage counter collector to pass as
// Options.Observer.
func NewStageStats() *StageStats { return engine.NewStats() }

// Options configures the corpus pipeline.
type Options struct {
	// Config holds the detection thresholds; a zero value (Config.IsZero)
	// selects DefaultConfig. Normalization happens once, at the engine
	// boundary.
	Config Config
	// Workers is the decode/categorization parallelism (<= 0: one per CPU).
	Workers int
	// Policy selects the error policy (default FailFast).
	Policy ErrorPolicy
	// Observer, when non-nil, receives per-stage events (see NewStageStats).
	Observer Observer
	// Store, when non-nil, warm-starts the Categorize stage from the
	// result store: traces already analyzed under this Config's
	// fingerprint are served from disk, fresh results are written back
	// (see OpenStore).
	Store *Store
	// Telemetry, when non-nil, instruments the run with metrics,
	// per-trace spans and the slow-trace log (see NewTelemetry). It
	// composes with Observer via MultiObserver, so both receive events.
	Telemetry *Telemetry
	// Explain enables decision-provenance collection: each AppResult
	// carries the Explanation recording why every category was (or
	// wasn't) assigned. Off by default — the hot path pays nothing.
	// With Store set, explanations are persisted alongside results and
	// warm hits require both to be present.
	Explain bool
	// ExplainOptions tunes collection (near-miss margin, segment cap);
	// the zero value selects the defaults. Ignored unless Explain is set.
	ExplainOptions ExplainOptions
}

// engine lowers the facade options onto the engine, returning the
// caching executor (nil without Options.Store) so callers can export
// its warm/cold counters after the run.
func (o Options) engine() (engine.Options, *CachingExecutor) {
	obs := o.Observer
	if o.Telemetry != nil {
		if obs != nil {
			obs = engine.MultiObserver(obs, o.Telemetry)
		} else {
			obs = o.Telemetry
		}
	}
	eo := engine.Options{
		Config:         o.Config,
		Workers:        o.Workers,
		Policy:         o.Policy,
		Observer:       obs,
		Explain:        o.Explain,
		ExplainOptions: o.ExplainOptions,
	}
	var ce *CachingExecutor
	if o.Store != nil {
		ce = store.NewCachingExecutor(o.Store, engine.Local{Workers: o.Workers})
		eo.Executor = ce
	}
	return eo, ce
}

// finishRun flushes per-run telemetry: the engine gauges via
// FinishRun, and — when a store warm-started the run — the warm/cold
// counters (mosaic_store_warm_total / mosaic_store_cold_total), so a
// scrape shows how much of the corpus was served from disk.
func (o Options) finishRun(ce *CachingExecutor) {
	if o.Telemetry == nil {
		return
	}
	if ce != nil {
		reg := o.Telemetry.Registry()
		reg.Counter("mosaic_store_warm_total",
			"Categorizations served warm from the result store.", nil).Add(ce.Hits())
		reg.Counter("mosaic_store_cold_total",
			"Categorizations computed cold and written back to the store.", nil).Add(ce.Misses())
	}
	o.Telemetry.FinishRun()
}

// AppResult pairs an application's categorization with its execution
// count, the unit of the "all runs" statistics. Explanation is non-nil
// only when Options.Explain was set.
type AppResult struct {
	Result      *Result      `json:"result"`
	Runs        int          `json:"runs"`
	Explanation *Explanation `json:"explanation,omitempty"`
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
		apps[i] = AppResult{Result: a.Result, Runs: a.Runs, Explanation: a.Explanation}
	}
	return &Analysis{Funnel: r.Funnel, Apps: apps, Aggregate: r.Agg}
}

// AnalyzeJobsContext runs the full pipeline over in-memory traces:
// funnel (validation + deduplication), parallel categorization of each
// application's heaviest run, and aggregation. Cancelling ctx stops
// in-flight work promptly and returns the context's error.
func AnalyzeJobsContext(ctx context.Context, jobs []*Job, opt Options) (*Analysis, error) {
	eopt, ce := opt.engine()
	res, err := engine.Run(ctx, engine.Jobs(jobs), eopt)
	opt.finishRun(ce)
	return fromEngine(res), err
}

// AnalyzeJobs is AnalyzeJobsContext with context.Background, preserved
// for callers predating the context-first API.
func AnalyzeJobs(jobs []*Job, opt Options) (*Analysis, error) {
	return AnalyzeJobsContext(context.Background(), jobs, opt)
}

// AnalyzeCorpusContext streams every trace under dir through the
// pipeline: paths are scanned and decoded concurrently with
// categorization, bounded channels keep memory flat, and cancelling ctx
// drains every stage without goroutine leaks. Decode failures count as
// corrupted traces, like damaged logs in the Blue Waters dataset.
func AnalyzeCorpusContext(ctx context.Context, dir string, opt Options) (*Analysis, error) {
	eopt, ce := opt.engine()
	res, err := engine.Run(ctx, engine.Dir(dir), eopt)
	opt.finishRun(ce)
	return fromEngine(res), err
}

// AnalyzeCorpus is AnalyzeCorpusContext with context.Background,
// preserved for callers predating the context-first API.
func AnalyzeCorpus(dir string, opt Options) (*Analysis, error) {
	return AnalyzeCorpusContext(context.Background(), dir, opt)
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

// TopCategories returns the categories sorted by decreasing application
// rate, for quick summaries.
func (a *Analysis) TopCategories() []Category {
	agg := a.Aggregate
	cats := AllCategories()
	sort.Slice(cats, func(i, j int) bool {
		return agg.SingleRate(cats[i]) > agg.SingleRate(cats[j])
	})
	var out []Category
	for _, c := range cats {
		if agg.SingleRate(c) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Explain renders the detection walkthrough of one result — merged
// operation counts, per-chunk volumes, periodic groups and metadata rates
// (the Figure 2 view of the paper).
func Explain(w io.Writer, res *Result) { report.WriteResult(w, res) }

// WriteHeatmap renders the Jaccard co-occurrence grid over all categories
// whose application rate is at least minRate.
func WriteHeatmap(w io.Writer, agg *Aggregator, minRate float64) {
	report.WriteHeatmap(w, agg, minRate)
}

// WriteTimeline renders the ASCII timeline of one trace — raw vs merged
// operations, periodic groups, and chunk volumes (the Figure 2 view).
func WriteTimeline(w io.Writer, j *Job, res *Result, cfg Config) {
	report.WriteTimeline(w, j, res, cfg)
}
