// Package engine is the single implementation of the MOSAIC corpus
// pipeline: an explicit staged stream
//
//	Scan → Decode → Funnel → Categorize → Aggregate
//
// in two passes over the corpus. The first decides: Decode reads each
// trace's summary (darshan.InspectFile — validity, (user, app), weight;
// from the prelude of a version-3 or -4 file, else by inflating the trace
// and inspecting it where it lies; no darshan.Job is built), the Funnel
// deduplicates those summaries and remembers only where each
// application's heaviest run is. The second materializes: once the corpus
// has been seen, the Categorize workers read the surviving groups' files
// — the paper's 5 % — each into the one job it owns for the run, reused
// from kept run to kept run and never queued. Memory is O(workers)
// buffers during the scan and O(workers) jobs after it, whatever the
// corpus size.
//
// A prelude is a hint that is always checked for what is kept: reading a
// kept run decodes, validates and compares it with its prelude. One that
// lied (darshan.ErrPreludeMismatch) may have evicted an honest run, so
// Run throws the attempt away and repeats it once with every file walked
// in full — the liar is then unreadable, and the answer is the one a
// corpus without preludes gets.
//
// Stages are joined by bounded channels (real backpressure: a slow
// categorizer throttles the scanner), with context cancellation plumbed
// end-to-end (cancelling mid-corpus drains every worker and returns
// ctx.Err() with no goroutine leaks), fail-fast errors (the first
// per-item error cancels in-flight work and is returned), and an
// Observer exposing per-stage counters and timings.
//
// Every frontend drives this one graph: the library facade
// (mosaic.AnalyzeCorpusContext), the mosaic CLI and the bench harness.
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

// scanned is one trace as the Decode stage leaves it: the reference it
// arrived as, and what the funnel reads of it or the error that kept it
// from being read.
type scanned struct {
	ref Ref
	sum darshan.Summary
	err error
}

// name identifies the trace for spans and slow logs: the on-disk path
// when it came from a file, the (user, app) identity for in-memory jobs,
// a placeholder for unreadable entries.
func (t scanned) name() string {
	switch {
	case t.ref.Path != "":
		return t.ref.Path
	case t.ref.Job != nil:
		return t.sum.User + "/" + t.sum.App
	default:
		return "<unreadable>"
	}
}

// ErrTraceChanged marks the item error of an application whose heaviest
// run, when read back for categorization, was no longer the trace the
// funnel chose: unreadable, invalid, or of another key or weight.
var ErrTraceChanged = errors.New("trace changed during the run")

// materialize reads the heaviest run of a group the funnel kept from
// its file into j, a Categorize worker's own job. The funnel decided on
// what InspectFile saw there; the job is handed on only if the summary
// the decoder took of it is still that, so nothing is ever categorized
// that was not validated. The decoder refills a Metadata map in place, and
// a core.Result keeps the map as its Truth: each run gets a map of its own.
func materialize(j *darshan.Job, g *core.AppGroup) error {
	j.Metadata = nil
	s, err := darshan.ReadFileInto(j, g.Path)
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w: %w", g.Path, ErrTraceChanged, err)
	case s.Invalid != nil:
		return fmt.Errorf("%s: %w: %v", g.Path, ErrTraceChanged, s.Invalid)
	case s.User != g.User || s.App != g.App || s.Weight != g.Weight:
		return fmt.Errorf("%s: %w: now %s/%s of weight %d, was of weight %d",
			g.Path, ErrTraceChanged, s.User, s.App, s.Weight, g.Weight)
	}
	return nil
}

// Options configures one pipeline run.
type Options struct {
	// Config holds the detection thresholds. A zero Config (Config.IsZero)
	// selects core.DefaultConfig; either way the config is normalized
	// (sane-clamped) once at the engine boundary.
	Config core.Config
	// Workers is the decode and (local) categorize parallelism
	// (<= 0: parallel.DefaultWorkers).
	Workers int
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
	// recording why every category was (or wasn't) assigned. Disabled,
	// the hot path is untouched.
	Explain bool
	// ExplainOptions tunes collection (near-miss margin, segment cap);
	// the zero value selects the explain package defaults.
	ExplainOptions explain.Options
}

// AppResult is one deduplicated application's outcome.
type AppResult struct {
	App    string
	User   string
	Runs   int    // valid executions in the group
	JobID  uint64 // the heaviest run, the one analyzed
	Result *core.Result
	// Explanation is the decision-provenance record of Result, collected
	// only when Options.Explain was set.
	Explanation *explain.Explanation
}

// Result is the outcome of a pipeline run.
type Result struct {
	Funnel core.FunnelStats
	Apps   []AppResult // sorted by (user, app)
	Agg    *report.Aggregator
}

// errCollector fails the pipeline fast: the first per-item error
// (categorization failures, ErrTraceChanged; decode failures during the
// scan are funnel data, not errors) cancels it and is what Run returns.
type errCollector struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	first  error
	// mismatch is the error of a kept run whose prelude lied: it ends the
	// attempt and is retried (see abandon).
	mismatch error
}

func (c *errCollector) add(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.first == nil {
		c.first = err
		c.cancel()
	}
	c.mu.Unlock()
}

// abandon ends the attempt: what the funnel decided rested on a prelude
// that lied, so no result of this attempt stands.
func (c *errCollector) abandon(err error) {
	c.mu.Lock()
	if c.mismatch == nil {
		c.mismatch = err
		c.cancel()
	}
	c.mu.Unlock()
}

// Run executes the five-stage pipeline over src and blocks until every
// stage goroutine has exited. It returns the first per-item error, if
// any, and otherwise ctx's cause if ctx was cancelled.
//
// The pipeline runs once, unless a kept run turns out to carry a prelude
// that is not the summary of its body: then everything is run again,
// once, with Decode walking every file in full. The observer sees both
// attempts.
func Run(ctx context.Context, src Source, opts Options) (*Result, error) {
	res, err := attempt(ctx, src, opts, true)
	if errors.Is(err, darshan.ErrPreludeMismatch) {
		res, err = attempt(ctx, src, opts, false)
	}
	return res, err
}

// attempt is one run of the pipeline. With trust, Decode believes the
// preludes it finds, and a kept run that then fails with
// darshan.ErrPreludeMismatch ends the attempt with that error, whatever
// the policy; without, Decode walks every file in full and the error is
// an item error like any other.
func attempt(ctx context.Context, src Source, opts Options, trust bool) (*Result, error) {
	inspect := darshan.WalkFile
	if trust {
		inspect = darshan.InspectFile
	}
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ec := &errCollector{cancel: cancel}

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

	// Stage 2: Decode — inflate and inspect traces in parallel while
	// preserving scan order, so funnel statistics (and heaviest-run
	// tie-breaks) stay deterministic. Ordering and worker lifecycle come
	// from parallel.MapOrdered, whose goroutines all exit on ctx
	// cancellation even when downstream stops reading.
	//
	// What leaves this stage is a darshan.Summary: validation and the
	// weight sum run here, on the workers, and no job is built. Buffer
	// pooling happens inside darshan (file bytes, inflate arenas, the
	// inflater's tables and the inspection scratch are sync.Pool-recycled
	// across traces); a Summary never aliases pooled memory — its two
	// strings are interned or copied — so it may outlive the buffers it
	// was read from, as the funnel needs.
	obs.StageStarted(StageDecode)
	traces := parallel.MapOrdered(ctx, workers, refs, func(r Ref) scanned {
		obs.ItemIn(StageDecode)
		var start time.Time
		if span != nil {
			start = time.Now()
		}
		t := scanned{ref: r, err: r.Err}
		switch {
		case t.err != nil:
		case r.Job == nil && r.Path != "":
			t.sum, t.err = inspect(r.Path)
		default:
			t.sum = darshan.Summarize(r.Job)
		}
		if span != nil {
			span.ItemSpan(StageDecode, t.name(), start, time.Since(start))
		}
		obs.ItemOut(StageDecode)
		return t
	})

	// Stage 3: Funnel — count evictions and deduplicate the summaries.
	// The Preprocessor is a streaming barrier: groups are only final once
	// the input is exhausted, so this stage emits downstream only at
	// end-of-stream.
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
			case t, ok := <-traces:
				if !ok {
					break consume
				}
				obs.ItemIn(StageFunnel)
				if span != nil {
					start := time.Now()
					pre.AddSummary(t.sum, t.err, t.ref.Path, t.ref.Job)
					span.ItemSpan(StageFunnel, t.name(), start, time.Since(start))
				} else {
					pre.AddSummary(t.sum, t.err, t.ref.Path, t.ref.Job)
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

	// Stage 4: Categorize — the pluggable executor stage. A group whose
	// heaviest run is a file is read here, into the worker's own job, which
	// the next such group overwrites, all but the Metadata map a result
	// may keep (materialize). That read is decode work and is timed as a
	// Decode item span, while the stage counters stay one item per trace
	// scanned.
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
			var own darshan.Job
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
					job := ig.g.Heaviest
					var res *core.Result
					var expl *explain.Explanation
					var err error
					if job == nil {
						job = &own
						err = materialize(job, ig.g)
						if span != nil {
							now := time.Now()
							span.ItemSpan(StageDecode, ig.g.Path, start, now.Sub(start))
							start = now
						}
					}
					switch {
					case err != nil:
					case opts.Explain:
						res, expl, err = exec.CategorizeExplained(ctx, job, cfg, opts.ExplainOptions)
					default:
						res, err = exec.Categorize(ctx, job, cfg)
					}
					if span != nil {
						span.ItemSpan(StageCategorize, ig.g.User+"/"+ig.g.App, start, time.Since(start))
					}
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						obs.ItemError(StageCategorize, err)
						err = fmt.Errorf("engine: app %s/%s: %w", ig.g.User, ig.g.App, err)
						if trust && errors.Is(err, darshan.ErrPreludeMismatch) {
							ec.abandon(err)
							return
						}
						ec.add(err)
						return
					}
					obs.ItemOut(StageCategorize)
					out := indexedResult{idx: ig.idx, res: AppResult{
						App: ig.g.App, User: ig.g.User, Runs: ig.g.Runs,
						JobID: job.JobID, Result: res, Explanation: expl,
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

	switch {
	case ec.mismatch != nil:
		return nil, ec.mismatch
	case ec.first != nil:
		return nil, ec.first
	case ctx.Err() != nil:
		// External cancellation: the context's cause
		// (context.Canceled / DeadlineExceeded).
		return nil, context.Cause(ctx)
	}
	return &Result{Funnel: funnel, Apps: ordered, Agg: agg}, nil
}
