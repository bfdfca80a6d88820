package engine

import (
	"context"

	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

// Ref identifies one trace for the Decode stage: either a path on disk
// (inspected by darshan.InspectFile, and read into a job later only if
// it is the heaviest run of its application) or an in-memory job
// (summarized as it is; a Job wins over a Path when both are set). Err
// carries a pre-existing read failure that the funnel should count as an
// unreadable trace.
type Ref struct {
	Path string
	Job  *darshan.Job
	Err  error
}

// Source feeds the Scan stage. Scan calls emit once per trace reference,
// in a deterministic order; emit returns false when the pipeline is
// shutting down (cancellation or fail-fast), at which point Scan must
// return promptly. Scan must not retain emit after returning.
type Source interface {
	Scan(ctx context.Context, emit func(Ref) bool) error
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(ctx context.Context, emit func(Ref) bool) error

// Scan implements Source.
func (f SourceFunc) Scan(ctx context.Context, emit func(Ref) bool) error { return f(ctx, emit) }

// Dir returns a Source that walks a corpus directory, emitting one Ref
// per trace file in deterministic lexical walk order. Reading happens
// downstream in the parallel Decode stage, so the scan itself is cheap
// and the directory never needs to be listed in full before the first
// trace flows.
func Dir(dir string) Source {
	return SourceFunc(func(ctx context.Context, emit func(Ref) bool) error {
		return darshan.ScanCorpus(ctx, dir, func(path string) bool {
			return emit(Ref{Path: path})
		})
	})
}

// Jobs returns a Source over in-memory traces, the AnalyzeJobs shape.
func Jobs(jobs []*darshan.Job) Source {
	return SourceFunc(func(ctx context.Context, emit func(Ref) bool) error {
		for _, j := range jobs {
			if !emit(Ref{Job: j}) {
				return ctx.Err()
			}
		}
		return nil
	})
}
