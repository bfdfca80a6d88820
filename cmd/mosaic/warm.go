package main

import (
	"context"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/engine"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// warmExec is the executor of `mosaic -store`: the in-process one behind
// the result store. A result stored under (content address, config
// fingerprint) is read back instead of recomputed, and a fresh one is
// stored for the next run. Only Categorize is cached: no corpus run asks
// for an explanation, so CategorizeExplained is Local's own.
type warmExec struct {
	engine.Local
	st *store.Store
}

// Categorize implements engine.Executor: store lookup, then Local on a
// miss, then write-back. A failed write fails the trace rather than
// leaving the next run silently cold.
func (e warmExec) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, _, err := store.TraceKey(j)
	if err != nil {
		return nil, err
	}
	fp := cfg.Fingerprint()
	if res, ok, err := e.st.GetResult(id, fp); err != nil || ok {
		return res, err
	}
	res, err := e.Local.Categorize(ctx, j, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.st.PutResult(id, fp, res); err != nil {
		return nil, err
	}
	return res, nil
}
