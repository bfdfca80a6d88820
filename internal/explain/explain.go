// Package explain is MOSAIC's decision-provenance model: a structured
// record of *why* every category was (or was not) assigned to a trace.
//
// A categorization run normally computes Mean Shift clusters, chunk-ratio
// comparisons, merge statistics and threshold crossings — and then throws
// them away, keeping only the labels. When an explanation is asked for
// (core.CategorizeExplained, engine Options.Explain, `mosaic -explain`
// and -explain-json on one trace, GET /v1/explain/{id} on the server,
// which derives it from the stored trace), the detection chain
// additionally emits an Explanation:
// per-direction preprocessing counts, the temporal chunk volumes and the
// dominance comparisons actually evaluated, every Mean Shift cluster with
// its size/centroid/spread and the reason it was accepted or rejected,
// period-magnitude bucketing, busy-time ratios, and the metadata
// spike/density statistics — each as an Evidence entry stating the rule,
// the operands, the threshold and the pass/fail outcome.
//
// Evidence entries also flag *near-misses*: comparisons whose operand lay
// within a configurable relative margin of the threshold, i.e. rules that
// would flip under a small perturbation of the trace or the
// configuration. The rendered rule trace counts them and marks each one,
// so a category one threshold away from flipping is visible on the trace
// that carries it.
//
// The package is a leaf: it depends only on the standard library, so
// every layer that builds or renders one (core, engine, serve, facade,
// CLIs) can share the model without import cycles. The result store
// keeps no explanation: one is a pure function of the trace and the
// configuration, derived again whenever it is asked for.
package explain

import (
	"math"
	"strings"
)

// DefaultMargin is the default near-miss margin: a comparison is a
// near-miss when its operand is within 5% (relative to the threshold) of
// flipping the outcome.
const DefaultMargin = 0.05

// DefaultMaxSegments caps how many per-segment (duration, bytes) features
// an explanation retains per direction.
const DefaultMaxSegments = 64

// Options configures explanation collection.
type Options struct {
	// Margin is the relative near-miss margin (<= 0: DefaultMargin). A
	// rule with threshold T and operand V is near-miss when
	// |V-T| <= Margin*|T|.
	Margin float64
	// MaxSegments caps retained per-segment features per direction
	// (<= 0: DefaultMaxSegments). The cap keeps stored explanations
	// bounded on traces with thousands of merged operations; the
	// SegmentsTruncated flag records when it bit.
	MaxSegments int
}

// Normalized applies defaults.
func (o Options) Normalized() Options {
	if o.Margin <= 0 {
		o.Margin = DefaultMargin
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = DefaultMaxSegments
	}
	return o
}

// Outcome is the verdict of one rule evaluation.
type Outcome string

// Outcomes.
const (
	Pass Outcome = "pass"
	Fail Outcome = "fail"
)

// Axis names for Evidence entries.
const (
	AxisPreprocess  = "preprocess"
	AxisTemporality = "temporality"
	AxisPeriodicity = "periodicity"
	AxisMetadata    = "metadata"
)

// Evidence is one rule evaluation: the rule's identity, the operand and
// threshold actually compared, the outcome, and whether the comparison
// was within the near-miss margin of flipping. Entries carrying a
// Category are the provenance of that label's assignment (Outcome ==
// Pass) or rejection (Outcome == Fail); entries without a Category are
// intermediate comparisons kept for auditability (e.g. each 2× chunk
// dominance check evaluated).
type Evidence struct {
	Axis      string  `json:"axis"`
	Direction string  `json:"direction,omitempty"` // "read" | "write" | "" (metadata)
	Rule      string  `json:"rule"`
	Category  string  `json:"category,omitempty"`
	Value     float64 `json:"value"`
	Op        string  `json:"op"` // the comparison applied: ">=", ">", "<", "<=", "in"
	Threshold float64 `json:"threshold"`
	Outcome   Outcome `json:"outcome"`
	NearMiss  bool    `json:"near_miss,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// Preprocess records the merging funnel of one direction: how many raw
// operations survived clipping, concurrent merging (2a) and neighbor
// merging (2b), and the gap thresholds that drove the neighbor pass.
type Preprocess struct {
	RawOps        int   `json:"raw_ops"`
	ClippedOps    int   `json:"clipped_ops"`
	ConcurrentOps int   `json:"concurrent_ops"` // after concurrent merging (2a)
	MergedOps     int   `json:"merged_ops"`     // after neighbor merging (2b)
	TotalBytes    int64 `json:"total_bytes"`
	// BusySeconds is the cumulative merged I/O time.
	BusySeconds float64 `json:"busy_seconds"`
	// GapRuntimeSeconds is the absolute runtime-fraction gap threshold
	// (MergeRuntimeFraction × runtime) used by neighbor merging.
	GapRuntimeSeconds float64 `json:"gap_runtime_seconds"`
	// NeighborFraction is the relative neighbor-duration gap threshold.
	NeighborFraction float64 `json:"neighbor_fraction"`
	// DXT reports whether the operations came from DXT extended
	// segments instead of aggregate open-to-close windows.
	DXT bool `json:"dxt,omitempty"`
}

// SegmentFeature is one segment's (inter-arrival duration, byte volume)
// pair — the 2D feature Mean Shift clusters.
type SegmentFeature struct {
	Duration float64 `json:"duration"`
	Bytes    int64   `json:"bytes"`
}

// Cluster reasons.
const (
	ClusterAccepted         = "accepted"
	ClusterRejectedSize     = "size below min_group_size"
	ClusterRejectedCoverage = "coverage below min_coverage"
)

// Cluster describes one Mean Shift cluster — accepted or rejected — with
// the statistics the group decision was based on.
type Cluster struct {
	Size int `json:"size"`
	// Period is the mean inter-arrival time of the member segments in
	// seconds (for size-1 clusters, the lone segment's duration).
	Period    float64 `json:"period"`
	MeanBytes float64 `json:"mean_bytes"`
	// CentroidDuration / CentroidVolume are the converged Mean Shift
	// mode in feature space (duration/runtime, log2(1+bytes)/scale).
	CentroidDuration float64 `json:"centroid_duration"`
	CentroidVolume   float64 `json:"centroid_volume"`
	// SpreadDuration / SpreadVolume are the member standard deviations
	// along each feature axis.
	SpreadDuration float64 `json:"spread_duration"`
	SpreadVolume   float64 `json:"spread_volume"`
	// Coverage is the fraction of the runtime spanned by the members.
	Coverage float64 `json:"coverage"`
	Accepted bool    `json:"accepted"`
	// Reason says why it was accepted or rejected (see Cluster* constants).
	Reason string `json:"reason"`
}

// Direction is the per-direction evidence of one explanation.
type Direction struct {
	Direction   string     `json:"direction"`
	Significant bool       `json:"significant"`
	Preprocess  Preprocess `json:"preprocess"`
	// Chunks are the per-chunk byte volumes temporality was decided on.
	Chunks []float64 `json:"chunks"`
	// CV is the coefficient of variation of the chunk volumes.
	CV float64 `json:"cv"`
	// Detector names the periodicity algorithm: "meanshift", or "" when
	// the direction was insignificant and periodicity never ran.
	Detector  string  `json:"detector,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// SegmentCount is the number of segments clustered; Segments holds
	// up to MaxSegments of their features (SegmentsTruncated reports
	// when the cap bit).
	SegmentCount      int              `json:"segment_count,omitempty"`
	Segments          []SegmentFeature `json:"segments,omitempty"`
	SegmentsTruncated bool             `json:"segments_truncated,omitempty"`
	Clusters          []Cluster        `json:"clusters,omitempty"`
	// Evidence lists every rule evaluated for this direction.
	Evidence []Evidence `json:"evidence"`
}

// Metadata is the metadata-axis evidence of one explanation.
type Metadata struct {
	TotalOps   int64      `json:"total_ops"`
	PeakRate   float64    `json:"peak_rate"`
	MeanRate   float64    `json:"mean_rate"`
	SpikeCount int        `json:"spike_count"`
	HighSpikes int        `json:"high_spikes"`
	Evidence   []Evidence `json:"evidence"`
}

// Explanation is the complete provenance record of one categorization:
// everything needed to answer "why was (or wasn't) this trace labeled X
// under this configuration".
type Explanation struct {
	JobID   uint64  `json:"job_id"`
	App     string  `json:"app"`
	User    string  `json:"user"`
	Runtime float64 `json:"runtime"`
	// Fingerprint identifies the effective configuration the decisions
	// were made under (core.Config.Fingerprint) — the same key the
	// result store uses, so explanation and result always pair up.
	Fingerprint string `json:"fingerprint"`
	// Margin is the near-miss margin the evidence was collected with.
	Margin float64 `json:"near_miss_margin"`
	// Labels is the assigned category set (mirrors Result.Labels).
	Labels []string   `json:"labels"`
	Read   *Direction `json:"read,omitempty"`
	Write  *Direction `json:"write,omitempty"`
	Meta   *Metadata  `json:"metadata,omitempty"`
}

// NearMiss reports whether value is within margin (relative to the
// threshold) of the threshold — i.e. whether the comparison could flip
// under a small perturbation. A zero threshold compares absolutely
// against the margin itself.
func NearMiss(margin, value, threshold float64) bool {
	if margin <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return false
	}
	t := math.Abs(threshold)
	if t == 0 {
		return math.Abs(value) <= margin
	}
	return math.Abs(value-threshold) <= margin*t
}

// sections iterates the evidence slices of the explanation.
func (e *Explanation) sections() []*[]Evidence {
	var out []*[]Evidence
	if e.Read != nil {
		out = append(out, &e.Read.Evidence)
	}
	if e.Write != nil {
		out = append(out, &e.Write.Evidence)
	}
	if e.Meta != nil {
		out = append(out, &e.Meta.Evidence)
	}
	return out
}

// AllEvidence returns every evidence entry across directions and the
// metadata axis, in collection order (read, write, metadata).
func (e *Explanation) AllEvidence() []Evidence {
	var out []Evidence
	for _, s := range e.sections() {
		out = append(out, *s...)
	}
	return out
}

// EvidenceCount returns the total number of evidence entries.
func (e *Explanation) EvidenceCount() int {
	n := 0
	for _, s := range e.sections() {
		n += len(*s)
	}
	return n
}

// NearMissCount returns how many evidence entries were near-misses.
func (e *Explanation) NearMissCount() int {
	n := 0
	for _, s := range e.sections() {
		for _, ev := range *s {
			if ev.NearMiss {
				n++
			}
		}
	}
	return n
}

// Supporting returns the evidence entries that support the assignment of
// the given category (Category matches, Outcome == Pass). Category-less
// intermediate entries never match, even for an empty argument.
func (e *Explanation) Supporting(category string) []Evidence {
	if category == "" {
		return nil
	}
	var out []Evidence
	for _, ev := range e.AllEvidence() {
		if ev.Category == category && ev.Outcome == Pass {
			out = append(out, ev)
		}
	}
	return out
}

// Against returns the evidence entries recording why the category was
// not assigned (Category matches, Outcome == Fail). Category-less
// intermediate entries never match, even for an empty argument.
func (e *Explanation) Against(category string) []Evidence {
	if category == "" {
		return nil
	}
	var out []Evidence
	for _, ev := range e.AllEvidence() {
		if ev.Category == category && ev.Outcome == Fail {
			out = append(out, ev)
		}
	}
	return out
}

// FilterCategory returns a copy of the explanation whose evidence lists
// keep only entries whose Category contains the given substring
// (case-sensitive, matching the index's bare-term semantics). Structured
// sections (clusters, chunks, preprocess) are preserved; an empty filter
// returns the explanation unchanged.
func (e *Explanation) FilterCategory(substr string) *Explanation {
	if substr == "" {
		return e
	}
	out := *e
	filter := func(evs []Evidence) []Evidence {
		kept := make([]Evidence, 0, len(evs))
		for _, ev := range evs {
			if ev.Category != "" && strings.Contains(ev.Category, substr) {
				kept = append(kept, ev)
			}
		}
		return kept
	}
	if e.Read != nil {
		r := *e.Read
		r.Evidence = filter(e.Read.Evidence)
		out.Read = &r
	}
	if e.Write != nil {
		w := *e.Write
		w.Evidence = filter(e.Write.Evidence)
		out.Write = &w
	}
	if e.Meta != nil {
		m := *e.Meta
		m.Evidence = filter(e.Meta.Evidence)
		out.Meta = &m
	}
	return &out
}
