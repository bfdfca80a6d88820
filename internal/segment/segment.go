// Package segment implements MOSAIC's trace segmentation and
// segmentation-based periodic-operation detection (Section III-B3a).
//
// After merging, the trace is divided into segments: a segment starts at
// the beginning of an I/O operation and ends at the beginning of the next
// one (the last segment ends at the end of the execution). Each segment is
// described by its duration and the volume of data moved by the operation
// that opens it. Segments sharing comparable duration and volume are
// grouped with Mean Shift; any group with more than one member is a
// periodic operation.
package segment

import (
	"math"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/cluster"
	"github.com/mosaic-hpc/mosaic/internal/interval"
)

// Segment spans from the start of one merged operation to the start of the
// next.
type Segment struct {
	Op       interval.Interval // the operation opening the segment
	Duration float64           // inter-arrival time to the next operation (or to end of run)
}

// Split segments a merged, sorted operation list. runtime closes the last
// segment. Operations must be disjoint and sorted (the output of
// interval.Merge); Split does not re-sort.
func Split(ops []interval.Interval, runtime float64) []Segment {
	segs := make([]Segment, len(ops))
	for i, op := range ops {
		end := runtime
		if i+1 < len(ops) {
			end = ops[i+1].Start
		}
		d := end - op.Start
		if d < 0 {
			d = 0
		}
		segs[i] = Segment{Op: op, Duration: d}
	}
	return segs
}

// FeatureConfig controls how segments are embedded into the 2D feature
// space used for clustering.
type FeatureConfig struct {
	// Runtime normalizes segment durations so that the duration axis is
	// a fraction of the execution. Must be > 0.
	Runtime float64
	// VolumeLogScale divides log2(1+bytes) to put the volume axis on a
	// comparable scale; with the default 64, one unit spans the entire
	// representable byte range, and a 2x volume change moves a point by
	// 1/64 ≈ 0.016.
	VolumeLogScale float64
}

// DefaultVolumeLogScale is the default divisor for the log-volume axis.
const DefaultVolumeLogScale = 64

// Features embeds segments as (duration/runtime, log2(1+bytes)/scale)
// points. This scaling realizes the paper's "comparable duration and data
// size" criterion: the Mean Shift bandwidth then expresses, in one number,
// how much two occurrences of the same logical operation may drift apart
// in time and volume.
// Feature points are 2-D and always allocated as headers over one
// contiguous float64 backing store (two allocations total, independent
// of the segment count), which is also the layout the accelerated
// clustering engine flattens into.
func Features(segs []Segment, cfg FeatureConfig) []cluster.Point {
	pts := make([]cluster.Point, len(segs))
	backing := make([]float64, 2*len(segs))
	for i := range pts {
		pts[i] = backing[2*i : 2*i+2 : 2*i+2]
	}
	fillFeatures(pts, segs, cfg)
	return pts
}

// fillFeatures writes the feature embedding of segs into pts, which must
// hold len(segs) 2-D points.
func fillFeatures(pts []cluster.Point, segs []Segment, cfg FeatureConfig) {
	scale := cfg.VolumeLogScale
	if scale <= 0 {
		scale = DefaultVolumeLogScale
	}
	rt := cfg.Runtime
	if rt <= 0 {
		rt = 1
	}
	for i, s := range segs {
		pts[i][0] = s.Duration / rt
		pts[i][1] = math.Log2(1+float64(s.Op.Bytes)) / scale
	}
}

// Group is a detected periodic operation: a cluster of at least two
// segments with comparable duration and volume.
type Group struct {
	Count     int                      // number of occurrences
	Period    float64                  // mean inter-arrival time, seconds
	Magnitude category.PeriodMagnitude // order of magnitude of the period
	MeanBytes float64                  // mean volume per occurrence
	BusyRatio float64                  // mean fraction of the period spent doing I/O
	Segments  []int                    // indices into the segment slice
}

// ClusterTrace describes one Mean Shift cluster — accepted or not — for
// decision provenance: its size, converged centroid, per-axis member
// spread, the period it implies, the runtime coverage of its members,
// and the reason it was (not) promoted to a periodic group.
type ClusterTrace struct {
	Size             int
	CentroidDuration float64 // feature space: duration/runtime
	CentroidVolume   float64 // feature space: log2(1+bytes)/scale
	SpreadDuration   float64 // member stddev along the duration axis
	SpreadVolume     float64 // member stddev along the volume axis
	Period           float64 // mean member inter-arrival time, seconds
	MeanBytes        float64
	Coverage         float64 // member span / runtime
	Accepted         bool
	Reason           string // "accepted" | "size" | "coverage"
}

// Cluster rejection reasons recorded in ClusterTrace.Reason.
const (
	ClusterAccepted         = "accepted"
	ClusterRejectedSize     = "size"
	ClusterRejectedCoverage = "coverage"
)

// DetectTrace, when attached to a DetectConfig, collects the clustering
// evidence Detect normally discards: the number of segments clustered
// and every cluster with its statistics and verdict. Clusters appear in
// cluster-id order (deterministic for a given input).
type DetectTrace struct {
	Segments int
	Clusters []ClusterTrace
}

// DetectConfig parametrizes periodic-group detection.
type DetectConfig struct {
	// Bandwidth is the Mean Shift bandwidth in feature-space units
	// (default 0.05 — set empirically like the paper's thresholds:
	// occurrences may drift by 5% of the runtime in cadence or ~8x in
	// volume and still group).
	Bandwidth float64
	// MinGroupSize is the minimum cluster size to call a group periodic
	// (paper: strictly greater than 1, i.e. 2).
	MinGroupSize int
	// Feature scaling.
	Features FeatureConfig
	// MinCoverage is the minimum fraction of the runtime the group's
	// occurrences must span for the periodicity to be meaningful; it
	// guards against two accidental near-identical operations at the
	// very start of a long job (default 0.5).
	MinCoverage float64
	// Trace, when non-nil, receives the clustering evidence (every
	// cluster with size/centroid/spread and its verdict). Detection
	// results are identical with or without it; nil costs nothing.
	Trace *DetectTrace
	// Scratch, when non-nil, supplies reusable clustering buffers so
	// repeated Detect calls stay allocation-free in the hot path. Results
	// are identical with or without it. Not safe for concurrent use.
	Scratch *cluster.Scratch
}

// DefaultDetectConfig returns the detection defaults for a job of the
// given runtime.
func DefaultDetectConfig(runtime float64) DetectConfig {
	return DetectConfig{
		Bandwidth:    0.05,
		MinGroupSize: 2,
		Features:     FeatureConfig{Runtime: runtime, VolumeLogScale: DefaultVolumeLogScale},
		MinCoverage:  0.5,
	}
}

// BusyHighThreshold splits periodic_low_busy_time from
// periodic_high_busy_time: the paper observes that almost all periodic
// writers spend less than 25% of the time writing. Exported so the
// explain subsystem can state the threshold it compared against.
const BusyHighThreshold = 0.25

// Detect clusters the segments and returns every periodic group found, or
// nil when the trace has no periodic behaviour. Multiple groups model
// applications with several interleaved periodic operations (e.g.
// checkpointing and regular input reading).
func Detect(segs []Segment, cfg DetectConfig) ([]Group, error) {
	if cfg.MinGroupSize < 2 {
		cfg.MinGroupSize = 2
	}
	if cfg.MinCoverage <= 0 {
		cfg.MinCoverage = 0.5
	}
	if cfg.Trace != nil {
		cfg.Trace.Segments = len(segs)
	}
	if len(segs) < cfg.MinGroupSize {
		return nil, nil
	}
	var pts []cluster.Point
	if cfg.Scratch != nil {
		pts = cfg.Scratch.Points(len(segs), 2)
		fillFeatures(pts, segs, cfg.Features)
	} else {
		pts = Features(segs, cfg.Features)
	}
	res, err := cluster.MeanShift(pts, cluster.MeanShiftConfig{
		Bandwidth: cfg.Bandwidth,
		Scratch:   cfg.Scratch,
	})
	if err != nil {
		return nil, err
	}
	byCluster := make(map[int][]int)
	for i, l := range res.Labels {
		byCluster[l] = append(byCluster[l], i)
	}
	runtime := cfg.Features.Runtime
	var groups []Group
	for l := 0; l < len(res.Centers); l++ {
		members := byCluster[l]
		var coverage float64
		if runtime > 0 {
			coverage = spanOf(segs, members) / runtime
		}
		accepted, reason := true, ClusterAccepted
		switch {
		case len(members) < cfg.MinGroupSize:
			accepted, reason = false, ClusterRejectedSize
		case runtime > 0 && coverage < cfg.MinCoverage:
			accepted, reason = false, ClusterRejectedCoverage
		}
		var g Group
		if accepted || cfg.Trace != nil {
			g = buildGroup(segs, members)
		}
		if cfg.Trace != nil {
			cfg.Trace.Clusters = append(cfg.Trace.Clusters,
				traceCluster(res.Centers[l], pts, members, g, coverage, accepted, reason))
		}
		if accepted {
			groups = append(groups, g)
		}
	}
	return groups, nil
}

// traceCluster assembles the provenance record of one cluster.
func traceCluster(center cluster.Point, pts []cluster.Point, members []int, g Group, coverage float64, accepted bool, reason string) ClusterTrace {
	ct := ClusterTrace{
		Size:      len(members),
		Period:    g.Period,
		MeanBytes: g.MeanBytes,
		Coverage:  coverage,
		Accepted:  accepted,
		Reason:    reason,
	}
	if len(center) == 2 {
		ct.CentroidDuration, ct.CentroidVolume = center[0], center[1]
	}
	if n := float64(len(members)); n > 0 {
		var mean0, mean1 float64
		for _, i := range members {
			mean0 += pts[i][0]
			mean1 += pts[i][1]
		}
		mean0 /= n
		mean1 /= n
		var var0, var1 float64
		for _, i := range members {
			d0, d1 := pts[i][0]-mean0, pts[i][1]-mean1
			var0 += d0 * d0
			var1 += d1 * d1
		}
		ct.SpreadDuration = math.Sqrt(var0 / n)
		ct.SpreadVolume = math.Sqrt(var1 / n)
	}
	return ct
}

func buildGroup(segs []Segment, members []int) Group {
	var sumDur, sumBytes, sumBusy float64
	for _, i := range members {
		s := segs[i]
		sumDur += s.Duration
		sumBytes += float64(s.Op.Bytes)
		if s.Duration > 0 {
			sumBusy += s.Op.Duration() / s.Duration
		}
	}
	n := float64(len(members))
	period := sumDur / n
	return Group{
		Count:     len(members),
		Period:    period,
		Magnitude: category.MagnitudeOf(period),
		MeanBytes: sumBytes / n,
		BusyRatio: sumBusy / n,
		Segments:  append([]int(nil), members...),
	}
}

// spanOf returns the time covered from the first to the last member
// segment (including the last member's duration).
func spanOf(segs []Segment, members []int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range members {
		s := segs[i]
		if s.Op.Start < lo {
			lo = s.Op.Start
		}
		if end := s.Op.Start + s.Duration; end > hi {
			hi = end
		}
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// BusyHigh reports whether a group's busy ratio crosses the
// low/high-busy-time boundary.
func (g Group) BusyHigh() bool { return g.BusyRatio >= BusyHighThreshold }

// Categories returns the periodicity categories implied by the groups for
// the given direction: the base periodic label, one magnitude label per
// distinct magnitude, and a busy-time label per group.
func Categories(dir category.Direction, groups []Group) category.Set {
	if len(groups) == 0 {
		return 0
	}
	s := category.NewSet(category.Periodic(dir))
	for _, g := range groups {
		if g.Magnitude != category.MagNone {
			s.Add(category.PeriodicMagnitude(dir, g.Magnitude))
		}
		s.Add(category.PeriodicBusy(dir, g.BusyHigh()))
	}
	return s
}
