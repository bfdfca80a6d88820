package serve

import "github.com/mosaic-hpc/mosaic/internal/telemetry"

// explainMetrics groups the decision-provenance instruments: how many
// explanations were collected, how much evidence they carry, and how
// often rules were within the near-miss margin of flipping. A corpus
// whose near-miss ratio trends up is category-flip-prone — small
// threshold or workload changes will relabel it — and that shows up on
// /metrics before it surprises anyone.
type explainMetrics struct {
	// Explanations counts collected explanations
	// (mosaic_explain_explanations_total).
	Explanations *telemetry.Counter
	// Evidence counts evidence entries across all explanations
	// (mosaic_explain_evidence_total).
	Evidence *telemetry.Counter
	// NearMisses counts near-miss evidence entries
	// (mosaic_explain_near_misses_total).
	NearMisses *telemetry.Counter
	// EvidenceEntries is the per-explanation evidence-count distribution
	// (mosaic_explain_evidence_entries).
	EvidenceEntries *telemetry.Histogram
	// NearMissRatio is the per-explanation near-miss fraction
	// (mosaic_explain_near_miss_ratio).
	NearMissRatio *telemetry.Histogram
	// Bytes is the serialized explanation size distribution
	// (mosaic_explain_bytes).
	Bytes *telemetry.Histogram
}

// newExplainMetrics registers the explain instruments in reg.
func newExplainMetrics(reg *telemetry.Registry) *explainMetrics {
	return &explainMetrics{
		Explanations: reg.Counter("mosaic_explain_explanations_total",
			"Decision-provenance explanations collected.", nil),
		Evidence: reg.Counter("mosaic_explain_evidence_total",
			"Evidence entries across all explanations.", nil),
		NearMisses: reg.Counter("mosaic_explain_near_misses_total",
			"Evidence entries within the near-miss margin of flipping.", nil),
		EvidenceEntries: reg.Histogram("mosaic_explain_evidence_entries",
			"Evidence entries per explanation.",
			[]float64{8, 16, 24, 32, 48, 64, 96, 128, 192, 256}, nil),
		NearMissRatio: reg.Histogram("mosaic_explain_near_miss_ratio",
			"Fraction of an explanation's evidence that was a near-miss.",
			[]float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1}, nil),
		Bytes: reg.Histogram("mosaic_explain_bytes",
			"Serialized explanation size in bytes.",
			[]float64{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}, nil),
	}
}

// Observe records one explanation's evidence count, near-miss count and
// serialized size.
func (m *explainMetrics) Observe(evidence, nearMisses, bytes int) {
	if m == nil {
		return
	}
	m.Explanations.Inc()
	m.Evidence.Add(int64(evidence))
	m.NearMisses.Add(int64(nearMisses))
	m.EvidenceEntries.Observe(float64(evidence))
	if evidence > 0 {
		m.NearMissRatio.Observe(float64(nearMisses) / float64(evidence))
	}
	if bytes > 0 {
		m.Bytes.Observe(float64(bytes))
	}
}
