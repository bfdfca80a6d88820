package explain

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.Normalized()
	if o.Margin != DefaultMargin || o.MaxSegments != DefaultMaxSegments {
		t.Fatalf("zero options not defaulted: %+v", o)
	}
	o = Options{Margin: 0.2, MaxSegments: 8}.Normalized()
	if o.Margin != 0.2 || o.MaxSegments != 8 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
	o = Options{Margin: -1, MaxSegments: -5}.Normalized()
	if o.Margin != DefaultMargin || o.MaxSegments != DefaultMaxSegments {
		t.Fatalf("negative options not defaulted: %+v", o)
	}
}

func TestNearMiss(t *testing.T) {
	cases := []struct {
		margin, value, threshold float64
		want                     bool
	}{
		{0.05, 100, 100, true},   // exact hit
		{0.05, 104, 100, true},   // inside relative margin
		{0.05, 106, 100, false},  // outside
		{0.05, 95, 100, true},    // below, inside
		{0.05, 94, 100, false},   // below, outside
		{0.05, -104, -100, true}, // negative threshold, relative to |T|
		{0.05, 0.04, 0, true},    // zero threshold: absolute margin
		{0.05, 0.06, 0, false},   // zero threshold, outside
		{0, 100, 100, false},     // margin disabled
		{-1, 100, 100, false},    // negative margin disabled
		{0.05, math.NaN(), 1, false},
		{0.05, math.Inf(1), 1, false},
	}
	for _, c := range cases {
		if got := NearMiss(c.margin, c.value, c.threshold); got != c.want {
			t.Errorf("NearMiss(%g, %g, %g) = %v, want %v",
				c.margin, c.value, c.threshold, got, c.want)
		}
	}
}

// sample builds an explanation with evidence in all three sections.
func sample() *Explanation {
	return &Explanation{
		JobID: 42, App: "sim", User: "alice", Runtime: 3600,
		Fingerprint: "cfg-test", Margin: 0.05,
		Labels: []string{"read_on_start", "write_periodic_minute"},
		Read: &Direction{
			Direction: "read", Significant: true,
			Evidence: []Evidence{
				{Axis: AxisTemporality, Direction: "read", Rule: "chunk_set_dominance",
					Category: "read_on_start", Value: 10, Op: ">", Threshold: 4, Outcome: Pass},
				{Axis: AxisTemporality, Direction: "read", Rule: "steady_cv",
					Category: "read_steady", Value: 0.9, Op: "<", Threshold: 0.25, Outcome: Fail},
			},
		},
		Write: &Direction{
			Direction: "write", Significant: true,
			Evidence: []Evidence{
				{Axis: AxisPeriodicity, Direction: "write", Rule: "period_magnitude",
					Category: "write_periodic_minute", Value: 300, Op: "in", Threshold: 60, Outcome: Pass},
				{Axis: AxisPeriodicity, Direction: "write", Rule: "chunk_dominance",
					Value: 1, Op: ">", Threshold: 2, Outcome: Fail, NearMiss: true},
			},
		},
		Meta: &Metadata{
			Evidence: []Evidence{
				{Axis: AxisMetadata, Rule: "spike_high_rate",
					Category: "metadata_high_spike", Value: 10, Op: ">=", Threshold: 250, Outcome: Fail},
			},
		},
	}
}

func TestEvidenceAccounting(t *testing.T) {
	e := sample()
	if n := e.EvidenceCount(); n != 5 {
		t.Fatalf("EvidenceCount = %d, want 5", n)
	}
	if n := e.NearMissCount(); n != 1 {
		t.Fatalf("NearMissCount = %d, want 1", n)
	}
	if n := len(e.AllEvidence()); n != 5 {
		t.Fatalf("AllEvidence length = %d, want 5", n)
	}
	// Nil sections must not panic and count as empty.
	empty := &Explanation{}
	if empty.EvidenceCount() != 0 || empty.NearMissCount() != 0 || len(empty.AllEvidence()) != 0 {
		t.Fatal("empty explanation has evidence")
	}
}

func TestSupportingAndAgainst(t *testing.T) {
	e := sample()
	if s := e.Supporting("read_on_start"); len(s) != 1 || s[0].Rule != "chunk_set_dominance" {
		t.Fatalf("Supporting(read_on_start) = %+v", s)
	}
	if a := e.Against("read_steady"); len(a) != 1 || a[0].Rule != "steady_cv" {
		t.Fatalf("Against(read_steady) = %+v", a)
	}
	// Pass entries never show up as Against and vice versa.
	if len(e.Against("read_on_start")) != 0 || len(e.Supporting("read_steady")) != 0 {
		t.Fatal("outcome filter leaked")
	}
	// Category-less intermediate entries are invisible to both views.
	if len(e.Supporting("")) != 0 || len(e.Against("")) != 0 {
		t.Fatal("category-less evidence matched the empty category")
	}
}

func TestFilterCategory(t *testing.T) {
	e := sample()
	f := e.FilterCategory("periodic")
	if n := f.EvidenceCount(); n != 1 {
		t.Fatalf("filtered count = %d, want 1", n)
	}
	if f.Write.Evidence[0].Category != "write_periodic_minute" {
		t.Fatalf("wrong survivor: %+v", f.Write.Evidence[0])
	}
	// Original untouched (FilterCategory returns a copy).
	if e.EvidenceCount() != 5 {
		t.Fatal("FilterCategory mutated the receiver")
	}
	// Empty filter is the identity.
	if e.FilterCategory("") != e {
		t.Fatal("empty filter did not return the receiver")
	}
	// Structured sections survive filtering.
	if f.Read == nil || f.Write == nil || f.Meta == nil {
		t.Fatal("filtering dropped sections")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	e := sample()
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Explanation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.EvidenceCount() != e.EvidenceCount() || back.NearMissCount() != e.NearMissCount() {
		t.Fatal("JSON round trip lost evidence")
	}
	if len(back.Labels) != 2 || back.Fingerprint != "cfg-test" {
		t.Fatal("JSON round trip lost header fields")
	}
}

func TestRenderDeterministicAndComplete(t *testing.T) {
	e := sample()
	var a, b strings.Builder
	Render(&a, e)
	Render(&b, e)
	if a.String() != b.String() {
		t.Fatal("Render is not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		"explain job=42 app=sim user=alice",
		"labels: read_on_start write_periodic_minute",
		"[read]", "[write]", "[metadata]",
		"chunk_set_dominance", "near-miss",
		"evidence: 5 entries, 1 near-misses",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderHandlesNilSections(t *testing.T) {
	var sb strings.Builder
	Render(&sb, &Explanation{JobID: 1, Labels: []string{"x"}})
	if !strings.Contains(sb.String(), "labels: x") {
		t.Fatal("minimal explanation did not render")
	}
}
