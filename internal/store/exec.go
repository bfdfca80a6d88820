package store

import (
	"context"
	"sync/atomic"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/explain"
)

// CachingExecutor wraps an engine.Executor with the result store:
// before categorizing a trace it looks up (content address, config
// fingerprint), and after a miss it persists the fresh result. This
// is the warm-start path — repeat corpus runs over an unchanged
// corpus under unchanged thresholds skip categorization entirely.
type CachingExecutor struct {
	store *Store
	inner engine.Executor
	// StoreTraces additionally persists each trace's canonical blob on
	// a miss, making the store self-contained (the serving layer wants
	// this; CLI warm-starts usually do not, since the corpus files are
	// the source of truth).
	StoreTraces bool

	hits, misses atomic.Int64
}

// NewCachingExecutor wraps inner with the store. inner must not be nil.
func NewCachingExecutor(s *Store, inner engine.Executor) *CachingExecutor {
	return &CachingExecutor{store: s, inner: inner}
}

// Categorize implements engine.Executor: store lookup, then the inner
// executor on a miss, then write-back. Write-back failures are
// returned (a persistence error should fail loudly rather than
// silently degrade to a cold cache).
func (e *CachingExecutor) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fp := cfg.Fingerprint()
	id, data, err := TraceKey(j)
	if err != nil {
		return nil, err
	}
	if res, ok, err := e.store.GetResult(id, fp); err != nil {
		return nil, err
	} else if ok {
		e.hits.Add(1)
		return res, nil
	}
	res, err := e.inner.Categorize(ctx, j, cfg)
	if err != nil {
		return nil, err
	}
	e.misses.Add(1)
	if e.StoreTraces {
		if _, _, err := e.store.PutTraceBytes(data); err != nil {
			return nil, err
		}
	}
	if err := e.store.PutResult(id, fp, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CategorizeExplained implements engine.Executor: a warm hit requires
// both the result and its explanation to be stored. A cold miss writes
// the pair back as one commit (PutOutcomeCtx); when the result is
// present but the explanation is not (e.g. it was computed before
// explanations existed, or by a plain Categorize), both are recomputed
// and only the missing explanation is written back — the stored result
// stays authoritative.
func (e *CachingExecutor) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, opts explain.Options) (*core.Result, *explain.Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	fp := cfg.Fingerprint()
	id, data, err := TraceKey(j)
	if err != nil {
		return nil, nil, err
	}
	res, haveRes, err := e.store.GetResult(id, fp)
	if err != nil {
		return nil, nil, err
	}
	if haveRes {
		if expl, haveExpl, err := e.store.GetExplanation(id, fp); err != nil {
			return nil, nil, err
		} else if haveExpl {
			e.hits.Add(1)
			return res, expl, nil
		}
	}
	fresh, expl, err := e.inner.CategorizeExplained(ctx, j, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	e.misses.Add(1)
	if e.StoreTraces {
		if _, _, err := e.store.PutTraceBytes(data); err != nil {
			return nil, nil, err
		}
	}
	if haveRes {
		_, err = e.store.PutExplanation(id, fp, expl)
	} else {
		res = fresh
		_, err = e.store.PutOutcomeCtx(ctx, id, fp, fresh, expl)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, expl, nil
}

// Concurrency implements engine.Executor, deferring to the inner
// executor's parallelism.
func (e *CachingExecutor) Concurrency() int { return e.inner.Concurrency() }

// Hits returns how many categorizations were served from the store.
func (e *CachingExecutor) Hits() int64 { return e.hits.Load() }

// Misses returns how many categorizations ran and were written back.
func (e *CachingExecutor) Misses() int64 { return e.misses.Load() }

var _ engine.Executor = (*CachingExecutor)(nil)
