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
// For whole corpora, AnalyzeCorpus streams a directory of traces through
// the full pipeline in parallel and returns funnel statistics, per-
// application results and aggregate distributions.
package mosaic

import (
	"fmt"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
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
	// Module identifies the I/O API of a record (POSIX, MPI-IO, STDIO).
	Module = darshan.Module
)

// Module constants.
const (
	ModPOSIX = darshan.ModPOSIX
	ModMPIIO = darshan.ModMPIIO
	ModSTDIO = darshan.ModSTDIO
)

// Category taxonomy, re-exported.
type (
	// Category is one behavioural label, e.g. "read_on_start".
	Category = category.Category
	// Set is the non-exclusive category set assigned to a trace: one
	// 64-bit word, bit i standing for AllCategories()[i]. The zero value
	// is the empty set; build one with Add, read it with Has, Sorted or
	// Strings.
	Set = category.Set
	// Direction distinguishes read from write behaviour.
	Direction = category.Direction
	// TemporalKind enumerates the temporality sub-labels.
	TemporalKind = category.TemporalKind
	// PeriodMagnitude is the order of magnitude of a detected period.
	PeriodMagnitude = category.PeriodMagnitude
)

// Re-exported category constructors and constants. See package
// internal/category for the full taxonomy.
var (
	// Temporal builds a temporality category, e.g. Temporal(DirRead, OnStart).
	Temporal = category.Temporal
	// Periodic builds the base periodicity category for a direction.
	Periodic = category.Periodic
	// PeriodicMagnitude builds a magnitude-qualified periodicity category.
	PeriodicMagnitudeCat = category.PeriodicMagnitude
	// PeriodicBusy builds the busy-time periodicity category.
	PeriodicBusy = category.PeriodicBusy
	// AllCategories returns the closed set of categories MOSAIC can emit.
	AllCategories = category.All
)

// Direction and temporality constants.
const (
	DirRead  = category.DirRead
	DirWrite = category.DirWrite

	OnStart             = category.OnStart
	OnEnd               = category.OnEnd
	AfterStart          = category.AfterStart
	BeforeEnd           = category.BeforeEnd
	AfterStartBeforeEnd = category.AfterStartBeforeEnd
	Steady              = category.Steady
	Insignificant       = category.Insignificant
)

// Metadata categories.
const (
	MetaHighSpike         = category.MetaHighSpike
	MetaMultipleSpikes    = category.MetaMultipleSpikes
	MetaHighDensity       = category.MetaHighDensity
	MetaInsignificantLoad = category.MetaInsignificantLoad
)

// Pipeline types, re-exported.
type (
	// Config holds every threshold of the method; see DefaultConfig.
	Config = core.Config
	// Result is the categorization of one trace.
	Result = core.Result
	// DirectionReport describes the detected behaviour of one direction.
	DirectionReport = core.DirectionReport
	// MetaReport describes the measured metadata load.
	MetaReport = core.MetaReport
	// FunnelStats summarizes the pre-processing funnel.
	FunnelStats = core.FunnelStats
	// AppGroup is a deduplicated application with its run count.
	AppGroup = core.AppGroup
	// Aggregator accumulates results into corpus-level distributions.
	Aggregator = report.Aggregator
)

// DefaultConfig returns the thresholds used in the paper's evaluation
// (100 MB significance, 4 temporal chunks, 2x dominance, 25% CV, 250/50
// req/s metadata spikes, 0.1%/1% merge gaps).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewAggregator returns an empty corpus aggregator.
func NewAggregator() *Aggregator { return report.NewAggregator() }

// Validate checks a trace's structural integrity, returning an error
// describing the first corruption found (IsCorrupted reports whether an
// error marks corruption).
func Validate(j *Job) error { return darshan.Validate(j) }

// IsCorrupted reports whether err was produced by Validate for a
// corrupted trace.
func IsCorrupted(err error) bool { return darshan.IsCorrupted(err) }

// Categorize runs the full MOSAIC detection chain — merging, periodicity,
// temporality and metadata analysis — on one validated trace.
func Categorize(j *Job, cfg Config) (*Result, error) {
	return core.Categorize(j, cfg)
}

// MustCategorize is Categorize for traces known to be well-formed; it
// panics on pipeline errors. Intended for tests and examples.
func MustCategorize(j *Job, cfg Config) *Result {
	res, err := core.Categorize(j, cfg)
	if err != nil {
		panic(fmt.Sprintf("mosaic: categorize: %v", err))
	}
	return res
}

// ReadTrace loads one trace file (binary .mosd or .json).
func ReadTrace(path string) (*Job, error) { return darshan.ReadFile(path) }

// WriteTrace stores a trace (format selected by extension).
func WriteTrace(path string, j *Job) error { return darshan.WriteFile(path, j) }

// ListCorpus returns the trace files under a directory.
func ListCorpus(dir string) ([]string, error) { return darshan.ListCorpus(dir) }

// Anonymize replaces identifying fields of a trace (user, uid,
// executable, file paths, free-form metadata) with salted pseudonyms,
// like publicly released Darshan corpora. Counters and timestamps are
// untouched, so categorization is unaffected; pseudonyms are stable
// within a salt, so per-application deduplication keeps working.
func Anonymize(j *Job, salt string) {
	darshan.NewAnonymizer(salt).Job(j)
}
