package serve

import (
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/telemetry"
)

func TestExplainMetricsObserve(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newExplainMetrics(reg)

	m.Observe(20, 2, 4096)
	m.Observe(10, 0, 1024)

	if got := m.Explanations.Value(); got != 2 {
		t.Fatalf("Explanations = %d, want 2", got)
	}
	if got := m.Evidence.Value(); got != 30 {
		t.Fatalf("Evidence = %d, want 30", got)
	}
	if got := m.NearMisses.Value(); got != 2 {
		t.Fatalf("NearMisses = %d, want 2", got)
	}
	if s := m.EvidenceEntries.Snapshot(); s.Count != 2 || s.Sum != 30 {
		t.Fatalf("EvidenceEntries snapshot = %+v", s)
	}
	// Ratios: 2/20 = 0.1 and 0/10 = 0.
	if s := m.NearMissRatio.Snapshot(); s.Count != 2 || s.Sum != 0.1 {
		t.Fatalf("NearMissRatio snapshot = %+v", s)
	}
	if s := m.Bytes.Snapshot(); s.Count != 2 || s.Sum != 5120 {
		t.Fatalf("Bytes snapshot = %+v", s)
	}
}

func TestExplainMetricsEdgeCases(t *testing.T) {
	// A nil receiver is a no-op, so callers need no instrumentation guard.
	var m *explainMetrics
	m.Observe(5, 1, 100) // must not panic

	reg := telemetry.NewRegistry()
	m = newExplainMetrics(reg)
	// Zero evidence: no ratio observation (avoid 0/0), no bytes when <= 0.
	m.Observe(0, 0, 0)
	if s := m.NearMissRatio.Snapshot(); s.Count != 0 {
		t.Fatalf("zero-evidence explanation observed a ratio: %+v", s)
	}
	if s := m.Bytes.Snapshot(); s.Count != 0 {
		t.Fatalf("zero-byte explanation observed a size: %+v", s)
	}
	if got := m.Explanations.Value(); got != 1 {
		t.Fatalf("Explanations = %d, want 1", got)
	}
}

func TestExplainMetricsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newExplainMetrics(reg)
	m.Observe(16, 1, 2048)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"mosaic_explain_explanations_total 1",
		"mosaic_explain_evidence_total 16",
		"mosaic_explain_near_misses_total 1",
		"# TYPE mosaic_explain_evidence_entries histogram",
		"# TYPE mosaic_explain_near_miss_ratio histogram",
		"# TYPE mosaic_explain_bytes histogram",
		"mosaic_explain_bytes_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Registering twice against the same registry returns the same
	// instruments (idempotent), so server restarts of subsystems
	// accumulate rather than panic.
	m2 := newExplainMetrics(reg)
	m2.Explanations.Inc()
	if got := m.Explanations.Value(); got != 2 {
		t.Fatalf("re-registered metrics not shared: %d", got)
	}
}
