package engine

import (
	"context"

	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
)

// Executor runs the Categorize stage for one validated trace. The
// default Local executor calls the in-process detection chain; `mosaic
// -store` embeds it in an executor that reads and writes the result
// store around Categorize — the engine does not know the difference.
type Executor interface {
	// Categorize analyzes one validated trace under ctx. Implementations
	// must return promptly with ctx.Err() once ctx is cancelled.
	Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error)
	// CategorizeExplained is Categorize that also returns the result's
	// decision-provenance record. The engine calls it instead of
	// Categorize when Options.Explain is set.
	CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, opts explain.Options) (*core.Result, *explain.Explanation, error)
	// Concurrency returns how many in-flight categorizations the engine
	// should maintain (<= 0 selects the engine's worker default).
	Concurrency() int
}

// Local is the in-process executor: one categorization per worker
// goroutine.
type Local struct {
	// Workers is the desired stage concurrency (<= 0: engine default).
	Workers int
}

// Categorize implements Executor.
func (l Local) Categorize(ctx context.Context, j *darshan.Job, cfg core.Config) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.Categorize(j, cfg)
}

// CategorizeExplained implements Executor.
func (l Local) CategorizeExplained(ctx context.Context, j *darshan.Job, cfg core.Config, opts explain.Options) (*core.Result, *explain.Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return core.CategorizeExplained(j, cfg, opts)
}

// Concurrency implements Executor.
func (l Local) Concurrency() int { return l.Workers }
