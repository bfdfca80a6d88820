// Package engine is the single implementation of the MOSAIC corpus
// pipeline: an explicit staged stream
//
//	Scan → Decode → Funnel → Categorize → Aggregate
//
// with bounded channels between stages (real backpressure: a slow
// categorizer throttles the scanner), context cancellation plumbed
// end-to-end (cancelling mid-corpus drains every worker and returns
// ctx.Err() with no goroutine leaks), a selectable error policy
// (fail-fast with cancellation of in-flight work, or collect-all via
// errors.Join), and an Observer exposing per-stage counters and
// timings.
//
// Every frontend drives this one graph: the library facade
// (mosaic.AnalyzeCorpusContext), the mosaic CLI, the bench harness and
// the distributed master (as an alternate Categorize-stage Executor).
// The paper's fixed funnel — validate, dedup, merge, detect, aggregate
// — therefore exists exactly once.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/parallel"
	"github.com/mosaic-hpc/mosaic/internal/report"
)

// entryName identifies one corpus entry for spans and slow logs: the
// on-disk path when the trace came from a file, the (user, app)
// identity for in-memory jobs, a placeholder for unreadable entries.
func entryName(e darshan.CorpusEntry) string {
	switch {
	case e.Path != "":
		return e.Path
	case e.Job != nil:
		return e.Job.User + "/" + e.Job.AppName()
	default:
		return "<unreadable>"
	}
}

// ErrorPolicy selects how the pipeline reacts to per-item errors
// (categorization failures; decode failures are funnel data, not
// errors).
type ErrorPolicy int

const (
	// FailFast cancels all in-flight work on the first error and
	// returns it. The default.
	FailFast ErrorPolicy = iota
	// CollectAll skips failed items, keeps the pipeline running, and
	// returns every error joined via errors.Join alongside the partial
	// analysis.
	CollectAll
)

// Options configures one pipeline run.
type Options struct {
	// Config holds the detection thresholds. A zero Config (Config.IsZero)
	// selects core.DefaultConfig; either way the config is normalized
	// (sane-clamped) once at the engine boundary.
	Config core.Config
	// Workers is the decode and (local) categorize parallelism
	// (<= 0: parallel.DefaultWorkers).
	Workers int
	// Policy selects the error policy (default FailFast).
	Policy ErrorPolicy
	// Observer receives stage lifecycle events (nil: none). Use *Stats
	// for the built-in counter collector.
	Observer Observer
	// Executor runs the Categorize stage (nil: Local in-process).
	Executor Executor
	// Buffer is the capacity of inter-stage channels (<= 0: 64). Bounded
	// buffers are what make backpressure real: a full channel blocks the
	// upstream stage.
	Buffer int
	// Explain enables decision-provenance collection during the
	// Categorize stage: each AppResult carries an explain.Explanation
	// recording why every category was (or wasn't) assigned. Requires an
	// executor implementing ExplainExecutor (Local and the caching store
	// executor do); otherwise explanations stay nil. Disabled, the hot
	// path is untouched.
	Explain bool
	// ExplainOptions tunes collection (near-miss margin, segment cap);
	// the zero value selects the explain package defaults.
	ExplainOptions explain.Options
}

// AppResult is one deduplicated application's outcome.
type AppResult struct {
	App    string
	User   string
	Runs   int          // valid executions in the group
	Job    *darshan.Job // the heaviest run, the one analyzed
	Result *core.Result
	// Explanation is the decision-provenance record of Result, collected
	// only when Options.Explain was set and the executor supports it.
	Explanation *explain.Explanation
}

// Result is the outcome of a pipeline run.
type Result struct {
	Funnel core.FunnelStats
	Apps   []AppResult // sorted by (user, app); errored apps omitted under CollectAll
	Agg    *report.Aggregator
}

// errCollector implements the error policy: under FailFast the first
// error cancels the pipeline; under CollectAll errors accumulate.
type errCollector struct {
	mu     sync.Mutex
	policy ErrorPolicy
	cancel context.CancelFunc
	errs   []error
}

func (c *errCollector) add(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.policy == FailFast {
		if len(c.errs) == 0 {
			c.errs = append(c.errs, err)
			c.cancel()
		}
	} else {
		c.errs = append(c.errs, err)
	}
	c.mu.Unlock()
}

func (c *errCollector) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return errors.Join(c.errs...)
}

// Run executes the five-stage pipeline over src and blocks until every
// stage goroutine has exited. On cancellation it returns ctx.Err();
// otherwise it returns the per-item errors according to the policy.
func Run(ctx context.Context, src Source, opts Options) (*Result, error) {
	cfg := opts.Config.Normalized()
	workers := opts.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	obs := opts.Observer
	if obs == nil {
		obs = NopObserver{}
	}
	exec := opts.Executor
	if exec == nil {
		exec = Local{Workers: workers}
	}
	buf := opts.Buffer
	if buf <= 0 {
		buf = 64
	}
	// Per-item spans are an opt-in extension: when the observer does not
	// implement SpanObserver, span == nil and no per-item clock reads
	// happen on the hot path.
	span, _ := obs.(SpanObserver)
	// Explanation collection is an opt-in executor capability, asserted
	// once per run like SpanObserver above.
	var exExec ExplainExecutor
	if opts.Explain {
		exExec, _ = exec.(ExplainExecutor)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ec := &errCollector{policy: opts.Policy, cancel: cancel}

	var wg sync.WaitGroup

	// Stage 1: Scan — enumerate trace references.
	refs := make(chan Ref, buf)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(refs)
		obs.StageStarted(StageScan)
		defer obs.StageFinished(StageScan)
		err := src.Scan(ctx, func(r Ref) bool {
			select {
			case refs <- r:
				obs.ItemOut(StageScan)
				return true
			case <-ctx.Done():
				return false
			}
		})
		if err != nil && ctx.Err() == nil {
			obs.ItemError(StageScan, err)
			ec.add(fmt.Errorf("engine: scan: %w", err))
		}
	}()

	// Stage 2: Decode — parse traces in parallel while preserving scan
	// order, so funnel statistics (and heaviest-run tie-breaks) stay
	// deterministic. Ordering and worker lifecycle come from
	// parallel.MapOrdered, whose goroutines all exit on ctx cancellation
	// even when downstream stops reading.
	//
	// Buffer pooling happens inside darshan.ReadFile: file bytes,
	// inflate arenas and the inflater's tables are sync.Pool-recycled
	// across decodes (mirroring core's cluster.Scratch pooling
	// downstream). The contract that makes this safe is that returned
	// Jobs never alias pooled memory — decoded strings are copied into
	// memory the Job owns, or interned — because Jobs outlive this
	// stage: the funnel keeps the heaviest run of each group until the
	// final aggregate.
	obs.StageStarted(StageDecode)
	traces := parallel.MapOrdered(ctx, workers, refs, func(r Ref) darshan.CorpusEntry {
		obs.ItemIn(StageDecode)
		var start time.Time
		if span != nil {
			start = time.Now()
		}
		e := darshan.CorpusEntry{Path: r.Path, Job: r.Job, Err: r.Err}
		if e.Job == nil && e.Err == nil && r.Path != "" {
			e.Job, e.Err = darshan.ReadFile(r.Path)
		}
		if span != nil {
			span.ItemSpan(StageDecode, entryName(e), start, time.Since(start))
		}
		obs.ItemOut(StageDecode)
		return e
	})

	// Stage 3: Funnel — validate and deduplicate. The Preprocessor is a
	// streaming barrier: groups are only final once the input is
	// exhausted, so this stage emits downstream only at end-of-stream.
	type indexedGroup struct {
		idx int
		g   *core.AppGroup
	}
	groups := make(chan indexedGroup, buf)
	var funnel core.FunnelStats
	var groupCount int
	funnelDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(groups)
		obs.StageStarted(StageFunnel)
		defer obs.StageFinished(StageFunnel)
		defer obs.StageFinished(StageDecode)
		pre := core.NewPreprocessor()
	consume:
		for {
			select {
			case e, ok := <-traces:
				if !ok {
					break consume
				}
				obs.ItemIn(StageFunnel)
				if span != nil {
					start := time.Now()
					pre.Add(e.Job, e.Err)
					span.ItemSpan(StageFunnel, entryName(e), start, time.Since(start))
				} else {
					pre.Add(e.Job, e.Err)
				}
			case <-ctx.Done():
				close(funnelDone)
				return
			}
		}
		funnel = pre.Stats()
		gs := pre.Groups()
		groupCount = len(gs)
		close(funnelDone) // aggregate may now size its result slice
		for i, g := range gs {
			select {
			case groups <- indexedGroup{idx: i, g: g}:
				obs.ItemOut(StageFunnel)
			case <-ctx.Done():
				return
			}
		}
	}()

	// Stage 4: Categorize — the pluggable executor stage.
	catWorkers := exec.Concurrency()
	if catWorkers <= 0 {
		catWorkers = workers
	}
	type indexedResult struct {
		idx int
		res AppResult
	}
	results := make(chan indexedResult, buf)
	var catWG sync.WaitGroup
	obs.StageStarted(StageCategorize)
	for w := 0; w < catWorkers; w++ {
		catWG.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer catWG.Done()
			for {
				select {
				case ig, ok := <-groups:
					if !ok {
						return
					}
					obs.ItemIn(StageCategorize)
					var start time.Time
					if span != nil {
						start = time.Now()
					}
					var res *core.Result
					var expl *explain.Explanation
					var err error
					if exExec != nil {
						res, expl, err = exExec.CategorizeExplained(ctx, ig.g.Heaviest, cfg, opts.ExplainOptions)
					} else {
						res, err = exec.Categorize(ctx, ig.g.Heaviest, cfg)
					}
					if span != nil {
						span.ItemSpan(StageCategorize, ig.g.User+"/"+ig.g.App, start, time.Since(start))
					}
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						obs.ItemError(StageCategorize, err)
						ec.add(fmt.Errorf("engine: app %s/%s: %w", ig.g.User, ig.g.App, err))
						continue
					}
					obs.ItemOut(StageCategorize)
					out := indexedResult{idx: ig.idx, res: AppResult{
						App: ig.g.App, User: ig.g.User, Runs: ig.g.Runs,
						Job: ig.g.Heaviest, Result: res, Explanation: expl,
					}}
					select {
					case results <- out:
					case <-ctx.Done():
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		catWG.Wait()
		obs.StageFinished(StageCategorize)
		close(results)
	}()

	// Stage 5: Aggregate — accumulate distributions. Aggregation is
	// commutative, so results may arrive in any order; the Apps slice is
	// rebuilt in funnel order from the carried indices.
	agg := report.NewAggregator()
	var ordered []AppResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		obs.StageStarted(StageAggregate)
		defer obs.StageFinished(StageAggregate)
		select {
		case <-funnelDone:
			ordered = make([]AppResult, groupCount)
		case <-ctx.Done():
			return
		}
		for {
			select {
			case ir, ok := <-results:
				if !ok {
					return
				}
				obs.ItemIn(StageAggregate)
				agg.Add(ir.res.Result, ir.res.Runs)
				ordered[ir.idx] = ir.res
				obs.ItemOut(StageAggregate)
			case <-ctx.Done():
				return
			}
		}
	}()

	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Cancellation (parent cancel, timeout, or fail-fast). Fail-fast
		// reports the causing item error; external cancellation reports
		// the context's cause (context.Canceled / DeadlineExceeded).
		if ierr := ec.err(); opts.Policy == FailFast && ierr != nil {
			return nil, ierr
		}
		return nil, context.Cause(ctx)
	}
	err := ec.err()
	if opts.Policy == FailFast && err != nil {
		return nil, err
	}
	apps := make([]AppResult, 0, len(ordered))
	for _, r := range ordered {
		if r.Result != nil {
			apps = append(apps, r)
		}
	}
	return &Result{Funnel: funnel, Apps: apps, Agg: agg}, err
}
