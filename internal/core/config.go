// Package core implements the MOSAIC categorization pipeline (Figure 1 of
// the paper): trace validation and deduplication, merging of I/O
// operations, and the three detectors — periodicity (segmentation + Mean
// Shift), temporality (temporal chunks) and metadata impact (request-rate
// analysis).
package core

import "github.com/mosaic-hpc/mosaic/internal/interval"

// Config gathers every threshold of the method. The zero value is not
// usable; start from DefaultConfig, which encodes the values of the paper,
// and override as needed ("the threshold can be modified in MOSAIC to
// extend or narrow the amount of I/O activities to categorize").
type Config struct {
	// SignificanceBytes is the minimum read (resp. written) volume for a
	// trace to be characterized on that direction; below it the trace is
	// {read,write}_insignificant. Paper: 100 MB, determined
	// experimentally on the Blue Waters dataset.
	SignificanceBytes int64

	// Merging thresholds (Section III-B2b): a gap is negligible when
	// shorter than MergeRuntimeFraction of the execution or
	// MergeNeighborFraction of the adjacent merged operation.
	MergeRuntimeFraction  float64
	MergeNeighborFraction float64

	// Temporality (Section III-B3b).
	ChunkCount      int     // number of equal temporal chunks (paper: 4)
	DominanceFactor float64 // chunk dominates when > factor × every other chunk (paper: 2)
	SteadyCV        float64 // coefficient of variation below which volumes are steady (paper: 0.25)

	// Periodicity (Section III-B3a): segmentation, then a flat-kernel
	// Mean Shift over the segments' (duration, volume) features.
	MeanShiftBandwidth float64 // feature-space bandwidth
	MinGroupSize       int     // cluster size strictly greater than 1 → periodic
	MinGroupCoverage   float64 // fraction of runtime a group must span
	VolumeLogScale     float64 // volume feature scaling

	// DisableDXT ignores DXT extended-tracing segments even when a trace
	// carries them, reproducing the aggregated-only view of the Blue
	// Waters corpus. The dxt experiment uses this to quantify how much
	// periodicity the aggregation hides (the paper's Section IV-A caveat).
	DisableDXT bool

	// Metadata impact (Section III-B3c). Rates are requests per second;
	// thresholds derive from MDWorkbench measurements on Mistral (a
	// Lustre system similar to Blue Waters, saturating around 3000
	// req/s).
	SpikeHighRate  float64 // high spike: at least one second above this (paper: 250)
	SpikeRate      float64 // spike: one second above this (paper: 50)
	MultipleSpikes int     // multiple_spikes: at least this many spikes (paper: 5)
	DensityRate    float64 // high_density: average rate over the run (paper: 50)
}

// DefaultConfig returns the thresholds used in the paper's evaluation.
func DefaultConfig() Config {
	return Config{
		SignificanceBytes:     100 << 20, // 100 MB
		MergeRuntimeFraction:  0.001,
		MergeNeighborFraction: 0.01,
		ChunkCount:            4,
		DominanceFactor:       2,
		SteadyCV:              0.25,
		MeanShiftBandwidth:    0.05,
		MinGroupSize:          2,
		MinGroupCoverage:      0.5,
		VolumeLogScale:        64,
		SpikeHighRate:         250,
		SpikeRate:             50,
		MultipleSpikes:        5,
		DensityRate:           50,
	}
}

// IsZero reports whether the config is entirely unset, i.e. the caller
// never chose thresholds and the defaults should apply. Each field is
// checked explicitly — never compare Config values with == here: that
// silently breaks (or stops compiling) the moment Config grows a
// non-comparable field, and a partially-filled config must NOT be
// treated as zero.
func (c Config) IsZero() bool {
	return c.SignificanceBytes == 0 &&
		c.MergeRuntimeFraction == 0 &&
		c.MergeNeighborFraction == 0 &&
		c.ChunkCount == 0 &&
		c.DominanceFactor == 0 &&
		c.SteadyCV == 0 &&
		c.MeanShiftBandwidth == 0 &&
		c.MinGroupSize == 0 &&
		c.MinGroupCoverage == 0 &&
		c.VolumeLogScale == 0 &&
		!c.DisableDXT &&
		c.SpikeHighRate == 0 &&
		c.SpikeRate == 0 &&
		c.MultipleSpikes == 0 &&
		c.DensityRate == 0
}

// Normalized is the single config-normalization point of the pipeline
// (the engine boundary): a zero config becomes DefaultConfig, and any
// config is sane-clamped so partially filled values cannot crash the
// detectors. Categorize applies the same clamps internally, so
// normalizing early never changes results.
func (c Config) Normalized() Config {
	if c.IsZero() {
		return DefaultConfig()
	}
	return c.sane()
}

// neighborPolicy adapts the merge thresholds to the interval package.
func (c *Config) neighborPolicy() interval.NeighborPolicy {
	return interval.NeighborPolicy{
		RuntimeFraction:  c.MergeRuntimeFraction,
		NeighborFraction: c.MergeNeighborFraction,
	}
}

// sane clamps obviously broken values so that a partially filled Config
// cannot crash the pipeline; tests cover each clamp.
func (c Config) sane() Config {
	if c.ChunkCount < 2 {
		c.ChunkCount = 4
	}
	if c.DominanceFactor <= 1 {
		c.DominanceFactor = 2
	}
	if c.SteadyCV <= 0 {
		c.SteadyCV = 0.25
	}
	if c.MeanShiftBandwidth <= 0 {
		c.MeanShiftBandwidth = 0.05
	}
	if c.MinGroupSize < 2 {
		c.MinGroupSize = 2
	}
	if c.SpikeHighRate <= 0 {
		c.SpikeHighRate = 250
	}
	if c.SpikeRate <= 0 {
		c.SpikeRate = 50
	}
	if c.MultipleSpikes <= 0 {
		c.MultipleSpikes = 5
	}
	if c.DensityRate <= 0 {
		c.DensityRate = 50
	}
	return c
}
