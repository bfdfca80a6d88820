package core

import (
	"fmt"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// CategorizeExplained is Categorize plus decision provenance: alongside
// the Result it returns an explain.Explanation recording, for every
// category of the closed taxonomy, the rule evaluations that assigned or
// rejected it — preprocessing funnel, temporal chunk volumes and the
// dominance comparisons actually evaluated, every Mean Shift cluster
// with its verdict, period-magnitude bucketing, busy-time ratios, and
// the metadata spike/density statistics.
//
// The labels are guaranteed identical to Categorize's for the same job
// and config: explanation is collected on the side, never consulted by
// the detectors.
func CategorizeExplained(j *darshan.Job, cfg Config, opts explain.Options) (*Result, *explain.Explanation, error) {
	o := opts.Normalized()
	ex := &explainState{
		opts: o,
		exp: &explain.Explanation{
			JobID:       j.JobID,
			App:         j.AppName(),
			User:        j.User,
			Runtime:     j.Runtime,
			Fingerprint: cfg.Fingerprint(),
			Margin:      o.Margin,
		},
	}
	res, err := categorize(j, cfg, ex)
	if err != nil {
		return nil, nil, err
	}
	return res, ex.exp, nil
}

// explainState is the per-run evidence collector threaded through
// categorize. A nil *explainState disables collection entirely.
type explainState struct {
	opts explain.Options
	exp  *explain.Explanation
}

// direction opens the evidence section of one direction. Safe on a nil
// receiver (returns nil, which disables per-direction collection).
func (ex *explainState) direction(dir category.Direction, dxt bool) *dirExplain {
	if ex == nil {
		return nil
	}
	d := &explain.Direction{Direction: dir.String()}
	d.Preprocess.DXT = dxt
	if dir == category.DirRead {
		ex.exp.Read = d
	} else {
		ex.exp.Write = d
	}
	return &dirExplain{st: ex, dir: dir, d: d}
}

// finish seals the explanation once the result is complete.
func (ex *explainState) finish(res *Result) {
	ex.exp.Labels = append([]string(nil), res.Labels...)
}

// dirExplain collects the evidence of a single direction.
type dirExplain struct {
	st  *explainState
	dir category.Direction
	d   *explain.Direction
}

// emit appends a fully built evidence entry.
func (dx *dirExplain) emit(ev explain.Evidence) {
	ev.Direction = dx.d.Direction
	dx.d.Evidence = append(dx.d.Evidence, ev)
}

// rule appends an evidence entry with the near-miss flag derived from
// the configured margin.
func (dx *dirExplain) rule(axis, rule string, cat category.Category, value float64, op string, threshold float64, pass bool, detail string) {
	dx.emit(evidence(dx.st.opts.Margin, axis, rule, cat, value, op, threshold, pass, detail))
}

// evidence builds one entry; margin <= 0 disables the near-miss check.
func evidence(margin float64, axis, rule string, cat category.Category, value float64, op string, threshold float64, pass bool, detail string) explain.Evidence {
	out := explain.Outcome(explain.Fail)
	if pass {
		out = explain.Pass
	}
	return explain.Evidence{
		Axis:      axis,
		Rule:      rule,
		Category:  string(cat),
		Value:     value,
		Op:        op,
		Threshold: threshold,
		Outcome:   out,
		NearMiss:  explain.NearMiss(margin, value, threshold),
		Detail:    detail,
	}
}

// preprocess records the merging funnel. Merged-op counts and byte/busy
// totals are completed in temporality once the report is filled.
func (dx *dirExplain) preprocess(raw, clipped, concurrent int, runtime float64, cfg *Config) {
	p := &dx.d.Preprocess
	p.RawOps = raw
	p.ClippedOps = clipped
	p.ConcurrentOps = concurrent
	p.GapRuntimeSeconds = cfg.MergeRuntimeFraction * runtime
	p.NeighborFraction = cfg.MergeNeighborFraction
}

// temporality records the chunk volumes, the dominance comparisons that
// were actually evaluated, and one classifiable rule per temporality
// category of the direction.
func (dx *dirExplain) temporality(rep *DirectionReport, tr *temporalTrace, cfg *Config) {
	p := &dx.d.Preprocess
	p.MergedOps = rep.MergedOps
	p.TotalBytes = rep.TotalBytes
	p.BusySeconds = rep.BusyTime
	dx.d.Chunks = append([]float64(nil), rep.Chunks...)
	dx.d.CV = tr.CV
	dx.d.Significant = rep.Significant()

	// Significance: the one rule evaluated on every direction. It is the
	// assignment rule of <dir>_insignificant and, failing, the gate that
	// let the rest of the axis run.
	sig := float64(cfg.SignificanceBytes)
	dx.rule(explain.AxisTemporality, "significance",
		category.Temporal(dx.dir, category.Insignificant),
		float64(rep.TotalBytes), "<", sig, rep.Temporal == category.Insignificant, "total bytes vs significance threshold")
	if !dx.d.Significant {
		return
	}

	// Steady: coefficient of variation of the chunk volumes.
	dx.rule(explain.AxisTemporality, "steady_cv",
		category.Temporal(dx.dir, category.Steady),
		tr.CV, "<", cfg.SteadyCV, rep.Temporal == category.Steady, "chunk-volume coefficient of variation")

	// The dominance comparisons actually evaluated (top-K set vs rest),
	// in evaluation order. No category: these are the audit trail of the
	// search, not an assignment rule.
	for _, c := range tr.Checks {
		dx.rule(explain.AxisTemporality, "chunk_dominance", "",
			c.MinDom, ">", cfg.DominanceFactor*c.MaxRest, c.Pass,
			fmt.Sprintf("top-%d chunk set vs rest", c.K))
	}
	if tr.Weak {
		best := 0
		for i, v := range rep.Chunks {
			if v > rep.Chunks[best] {
				best = i
			}
		}
		dx.emit(explain.Evidence{
			Axis: explain.AxisTemporality, Rule: "weak_dominance",
			Value: rep.Chunks[best], Op: ">=", Threshold: 0,
			Outcome: explain.Pass,
			Detail:  fmt.Sprintf("no dominant set; largest chunk %d decided", best),
		})
	}

	// One classifiable rule per location kind: would the kind's defining
	// chunk set dominate the rest? The outcome is authoritative (pass iff
	// the kind was assigned); the operands show how close the set came.
	for _, k := range []category.TemporalKind{
		category.OnStart, category.OnEnd, category.AfterStart,
		category.BeforeEnd, category.AfterStartBeforeEnd,
	} {
		set := kindChunkSet(k, len(rep.Chunks))
		cat := category.Temporal(dx.dir, k)
		pass := rep.Temporal == k
		if len(set) == 0 || len(set) == len(rep.Chunks) {
			dx.emit(explain.Evidence{
				Axis: explain.AxisTemporality, Rule: "chunk_set_dominance",
				Category: string(cat), Op: ">",
				Outcome: explain.Fail,
				Detail:  fmt.Sprintf("kind unreachable with %d chunks", len(rep.Chunks)),
			})
			continue
		}
		minSet, maxRest := setOperands(rep.Chunks, set)
		dx.rule(explain.AxisTemporality, "chunk_set_dominance", cat,
			minSet, ">", cfg.DominanceFactor*maxRest, pass,
			fmt.Sprintf("min(chunks%v) vs %g×max(rest)", set, cfg.DominanceFactor))
	}
}

// kindChunkSet returns the canonical chunk-index set whose dominance
// yields the given location kind under kindForChunkSet, or nil when the
// kind is unreachable with n chunks.
func kindChunkSet(k category.TemporalKind, n int) []int {
	switch k {
	case category.OnStart:
		return []int{0}
	case category.OnEnd:
		if n < 2 {
			return nil
		}
		return []int{n - 1}
	case category.AfterStart:
		var set []int
		for i := 1; i < n/2; i++ {
			set = append(set, i)
		}
		return set
	case category.BeforeEnd:
		var set []int
		for i := n / 2; i < n-1; i++ {
			if i >= 1 {
				set = append(set, i)
			}
		}
		return set
	case category.AfterStartBeforeEnd:
		var set []int
		for i := 1; i < n-1; i++ {
			set = append(set, i)
		}
		return set
	default:
		return nil
	}
}

// setOperands returns the smallest volume inside the set and the largest
// outside it.
func setOperands(chunks []float64, set []int) (minSet, maxRest float64) {
	in := make(map[int]bool, len(set))
	for _, i := range set {
		in[i] = true
	}
	first := true
	for i, v := range chunks {
		if in[i] {
			if first || v < minSet {
				minSet = v
				first = false
			}
		} else if v > maxRest {
			maxRest = v
		}
	}
	return minSet, maxRest
}

// periodicity records the detector evidence of a significant direction:
// the segment features, every cluster with its verdict, and one
// classifiable rule per periodicity category.
func (dx *dirExplain) periodicity(rep *DirectionReport, tr *periodicityTrace, cfg *Config) {
	dx.d.Detector = "meanshift"
	dx.d.Bandwidth = cfg.MeanShiftBandwidth

	segs := tr.Segs
	dx.d.SegmentCount = len(segs)
	keep := len(segs)
	if keep > dx.st.opts.MaxSegments {
		keep = dx.st.opts.MaxSegments
		dx.d.SegmentsTruncated = true
	}
	dx.d.Segments = make([]explain.SegmentFeature, keep)
	for i := 0; i < keep; i++ {
		dx.d.Segments[i] = explain.SegmentFeature{Duration: segs[i].Duration, Bytes: segs[i].Op.Bytes}
	}

	// Every cluster the detector considered, with per-cluster size and
	// coverage rules carrying the group-promotion thresholds. The
	// coverage threshold mirrors segment.Detect's clamp.
	minCov := cfg.MinGroupCoverage
	if minCov <= 0 {
		minCov = 0.5
	}
	for i, c := range tr.Seg.Clusters {
		dx.d.Clusters = append(dx.d.Clusters, explain.Cluster{
			Size:             c.Size,
			Period:           c.Period,
			MeanBytes:        c.MeanBytes,
			CentroidDuration: c.CentroidDuration,
			CentroidVolume:   c.CentroidVolume,
			SpreadDuration:   c.SpreadDuration,
			SpreadVolume:     c.SpreadVolume,
			Coverage:         c.Coverage,
			Accepted:         c.Accepted,
			Reason:           clusterReason(c.Reason),
		})
		dx.rule(explain.AxisPeriodicity, "group_size", "",
			float64(c.Size), ">=", float64(cfg.MinGroupSize), c.Size >= cfg.MinGroupSize,
			fmt.Sprintf("cluster %d", i))
		if c.Size >= cfg.MinGroupSize {
			dx.rule(explain.AxisPeriodicity, "group_coverage", "",
				c.Coverage, ">=", minCov, c.Reason != segment.ClusterRejectedCoverage,
				fmt.Sprintf("cluster %d", i))
		}
	}

	// The summary rule of <dir>_periodic: at least one promoted group.
	periodic := len(rep.Groups) > 0
	dx.emit(explain.Evidence{
		Axis: explain.AxisPeriodicity, Rule: "periodic_groups",
		Category: string(category.Periodic(dx.dir)),
		Value:    float64(len(rep.Groups)), Op: ">=", Threshold: 1,
		Outcome: outcome(periodic),
		Detail:  "periodic groups promoted",
	})

	if !periodic {
		// Dependent categories cannot be assigned without a group; record
		// the failing prerequisite for each so "why not X" has an answer.
		for _, m := range []category.PeriodMagnitude{
			category.MagSecond, category.MagMinute, category.MagHour, category.MagDayOrMore,
		} {
			dx.requiresPeriodic(category.PeriodicMagnitude(dx.dir, m))
		}
		dx.requiresPeriodic(category.PeriodicBusy(dx.dir, false))
		dx.requiresPeriodic(category.PeriodicBusy(dx.dir, true))
		return
	}

	// Magnitude bucketing: one rule per magnitude. For assigned buckets
	// the operand is the matching group's period; for the rest, the
	// dominant period — near-misses against the bucket edges flag
	// periods about to change magnitude.
	dominant := rep.DominantPeriod()
	for _, m := range []category.PeriodMagnitude{
		category.MagSecond, category.MagMinute, category.MagHour, category.MagDayOrMore,
	} {
		period, ok := 0.0, false
		for _, g := range rep.Groups {
			if g.Magnitude == m {
				period, ok = g.Period, true
				break
			}
		}
		if !ok {
			period = dominant
		}
		lo, hi := magnitudeBounds(m)
		near := explain.NearMiss(dx.st.opts.Margin, period, lo)
		if hi > 0 {
			near = near || explain.NearMiss(dx.st.opts.Margin, period, hi)
		}
		detail := fmt.Sprintf("period vs bucket [%g,%g)s", lo, hi)
		if hi <= 0 {
			detail = fmt.Sprintf("period vs bucket [%g,∞)s", lo)
		}
		dx.emit(explain.Evidence{
			Axis: explain.AxisPeriodicity, Rule: "period_magnitude",
			Category: string(category.PeriodicMagnitude(dx.dir, m)),
			Value:    period, Op: "in", Threshold: lo,
			Outcome: outcome(ok), NearMiss: near, Detail: detail,
		})
	}

	// Busy-time split: low is assigned when some group stays under the
	// threshold, high when some group crosses it.
	minBusy, maxBusy := rep.Groups[0].BusyRatio, rep.Groups[0].BusyRatio
	for _, g := range rep.Groups[1:] {
		if g.BusyRatio < minBusy {
			minBusy = g.BusyRatio
		}
		if g.BusyRatio > maxBusy {
			maxBusy = g.BusyRatio
		}
	}
	dx.rule(explain.AxisPeriodicity, "busy_ratio",
		category.PeriodicBusy(dx.dir, false),
		minBusy, "<", segment.BusyHighThreshold, minBusy < segment.BusyHighThreshold,
		"smallest group busy ratio")
	dx.rule(explain.AxisPeriodicity, "busy_ratio",
		category.PeriodicBusy(dx.dir, true),
		maxBusy, ">=", segment.BusyHighThreshold, maxBusy >= segment.BusyHighThreshold,
		"largest group busy ratio")
}

// requiresPeriodic records the failing prerequisite of a
// periodicity-dependent category on a non-periodic direction.
func (dx *dirExplain) requiresPeriodic(cat category.Category) {
	dx.emit(explain.Evidence{
		Axis: explain.AxisPeriodicity, Rule: "requires_periodic",
		Category: string(cat),
		Value:    0, Op: ">=", Threshold: 1,
		Outcome: explain.Fail,
		Detail:  "no periodic group on this direction",
	})
}

// clusterReason maps the segment package's verdict constants to the
// explain package's human-oriented ones.
func clusterReason(r string) string {
	switch r {
	case segment.ClusterRejectedSize:
		return explain.ClusterRejectedSize
	case segment.ClusterRejectedCoverage:
		return explain.ClusterRejectedCoverage
	default:
		return explain.ClusterAccepted
	}
}

// magnitudeBounds returns the half-open period bucket [lo, hi) of a
// magnitude in seconds; hi <= 0 means unbounded.
func magnitudeBounds(m category.PeriodMagnitude) (lo, hi float64) {
	switch m {
	case category.MagSecond:
		return 0, 60
	case category.MagMinute:
		return 60, 3600
	case category.MagHour:
		return 3600, 86400
	case category.MagDayOrMore:
		return 86400, 0
	default:
		return 0, 0
	}
}

func outcome(pass bool) explain.Outcome {
	if pass {
		return explain.Pass
	}
	return explain.Fail
}

// meta records the metadata-axis statistics and one classifiable rule
// per metadata category.
func (ex *explainState) meta(j *darshan.Job, res *Result, cfg *Config) {
	rep := res.Meta
	m := &explain.Metadata{
		TotalOps:   rep.TotalOps,
		PeakRate:   rep.PeakRate,
		MeanRate:   rep.MeanRate,
		SpikeCount: rep.SpikeCount,
		HighSpikes: rep.HighSpikes,
	}
	ex.exp.Meta = m
	margin := ex.opts.Margin
	add := func(ev explain.Evidence) { m.Evidence = append(m.Evidence, ev) }

	// metadata_insignificant_load has two assignment paths: fewer
	// requests than ranks, or traffic that crosses no pattern threshold.
	add(evidence(margin, explain.AxisMetadata, "meta_volume",
		category.MetaInsignificantLoad,
		float64(rep.TotalOps), "<", float64(j.NProcs),
		rep.TotalOps < int64(j.NProcs), "metadata requests vs rank count"))

	patterns := 0
	for _, c := range []category.Category{
		category.MetaHighSpike, category.MetaMultipleSpikes, category.MetaHighDensity,
	} {
		if res.Categories.Has(c) {
			patterns++
		}
	}
	add(explain.Evidence{
		Axis: explain.AxisMetadata, Rule: "meta_no_pattern",
		Category: string(category.MetaInsignificantLoad),
		Value:    float64(patterns), Op: "<", Threshold: 1,
		Outcome: outcome(patterns == 0),
		Detail:  "pattern categories assigned",
	})

	add(evidence(margin, explain.AxisMetadata, "spike_high_rate",
		category.MetaHighSpike,
		rep.PeakRate, ">=", cfg.SpikeHighRate,
		res.Categories.Has(category.MetaHighSpike), "peak one-second request rate"))
	add(evidence(margin, explain.AxisMetadata, "multiple_spikes",
		category.MetaMultipleSpikes,
		float64(rep.SpikeCount), ">=", float64(cfg.MultipleSpikes),
		res.Categories.Has(category.MetaMultipleSpikes), "seconds at or above spike rate"))
	add(evidence(margin, explain.AxisMetadata, "density_spikes",
		category.MetaHighDensity,
		float64(rep.SpikeCount), ">=", float64(cfg.MultipleSpikes),
		rep.SpikeCount >= cfg.MultipleSpikes, "high_density condition 1: spike count"))
	add(evidence(margin, explain.AxisMetadata, "density_mean_rate",
		category.MetaHighDensity,
		rep.MeanRate, ">=", cfg.DensityRate,
		rep.MeanRate >= cfg.DensityRate, "high_density condition 2: mean request rate"))
}
