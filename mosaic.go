// Package mosaic is the public API of the MOSAIC library: detection and
// categorization of I/O patterns in HPC application traces, reproducing
// Jolivel, Tessier, Monniot & Pallez, "MOSAIC: Detection and
// Categorization of I/O Patterns in HPC Applications" (PDSW 2024).
//
// MOSAIC consumes Darshan-like traces (see ReadTrace / the Job model),
// pre-processes them (validation, per-application deduplication, merging
// of concurrent and neighboring operations) and assigns each trace a set
// of non-exclusive categories along three axes:
//
//   - temporality: when reads/writes happen ({read,write}_on_start,
//     _on_end, _after_start, _before_end, _after_start_before_end,
//     _steady, _insignificant);
//   - periodicity: checkpoint-style repetition and its period magnitude
//     ({read,write}_periodic[_second|_minute|_hour|_day_or_more],
//     _periodic_{low,high}_busy_time);
//   - metadata impact: load on the metadata server (metadata_high_spike,
//     _multiple_spikes, _high_density, _insignificant_load).
//
// Quick start:
//
//	job, err := mosaic.ReadTrace("trace.mosd")
//	...
//	res, err := mosaic.Categorize(job, mosaic.DefaultConfig())
//	fmt.Println(res.Labels) // e.g. [metadata_multiple_spikes write_periodic ...]
//
// For whole corpora, AnalyzeCorpusContext streams a directory of traces
// through the full pipeline in parallel and returns funnel statistics,
// per-application results and aggregate distributions.
package mosaic

import (
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/report"
)

// Trace model (Darshan-compatible), re-exported from the substrate.
type (
	// Job is one execution trace: a job header plus per-(file, rank)
	// counter records.
	Job = darshan.Job
	// FileRecord is the per-file aggregation unit of a trace.
	FileRecord = darshan.FileRecord
	// Counters is the Darshan-style counter set of a record.
	Counters = darshan.Counters
)

// ModPOSIX marks a record of the POSIX I/O API.
const ModPOSIX = darshan.ModPOSIX

// Pipeline types, re-exported.
type (
	// Config holds every threshold of the method; see DefaultConfig.
	Config = core.Config
	// Result is the categorization of one trace.
	Result = core.Result
	// FunnelStats summarizes the pre-processing funnel.
	FunnelStats = core.FunnelStats
	// Aggregator accumulates results into corpus-level distributions.
	Aggregator = report.Aggregator
	// Explanation is the decision-provenance record of one
	// categorization, as `mosaic -explain-json` writes it.
	Explanation = explain.Explanation
)

// DefaultConfig returns the thresholds used in the paper's evaluation
// (100 MB significance, 4 temporal chunks, 2x dominance, 25% CV, 250/50
// req/s metadata spikes, 0.1%/1% merge gaps).
func DefaultConfig() Config { return core.DefaultConfig() }

// Validate checks a trace's structural integrity, returning an error
// describing the first corruption found.
func Validate(j *Job) error { return darshan.Validate(j) }

// Categorize runs the full MOSAIC detection chain — merging, periodicity,
// temporality and metadata analysis — on one validated trace.
func Categorize(j *Job, cfg Config) (*Result, error) {
	return core.Categorize(j, cfg)
}

// ReadTrace loads one trace file (binary .mosd or .json).
func ReadTrace(path string) (*Job, error) { return darshan.ReadFile(path) }

// WriteTrace stores a trace (format selected by extension).
func WriteTrace(path string, j *Job) error { return darshan.WriteFile(path, j) }

// ListCorpus returns the trace files under a directory.
func ListCorpus(dir string) ([]string, error) { return darshan.ListCorpus(dir) }
