package category

import (
	"testing"
	"testing/quick"
)

func TestTemporalLabels(t *testing.T) {
	cases := []struct {
		dir  Direction
		kind TemporalKind
		want Category
	}{
		{DirRead, OnStart, "read_on_start"},
		{DirWrite, OnEnd, "write_on_end"},
		{DirRead, AfterStartBeforeEnd, "read_after_start_before_end"},
		{DirWrite, Steady, "write_steady"},
		{DirRead, Insignificant, "read_insignificant"},
		{DirWrite, BeforeEnd, "write_before_end"},
		{DirRead, AfterStart, "read_after_start"},
	}
	for _, c := range cases {
		if got := Temporal(c.dir, c.kind); got != c.want {
			t.Errorf("Temporal(%v, %v) = %q, want %q", c.dir, c.kind, got, c.want)
		}
	}
}

func TestPeriodicLabels(t *testing.T) {
	if got := Periodic(DirWrite); got != "write_periodic" {
		t.Fatalf("Periodic = %q", got)
	}
	if got := PeriodicMagnitude(DirWrite, MagMinute); got != "write_periodic_minute" {
		t.Fatalf("PeriodicMagnitude = %q", got)
	}
	if got := PeriodicBusy(DirRead, true); got != "read_periodic_high_busy_time" {
		t.Fatalf("PeriodicBusy = %q", got)
	}
	if got := PeriodicBusy(DirRead, false); got != "read_periodic_low_busy_time" {
		t.Fatalf("PeriodicBusy = %q", got)
	}
	// Arguments that name no category yield the empty name, never a
	// neighbour's.
	for _, got := range []Category{
		Temporal(DirNone, OnStart), Temporal(DirRead, Insignificant+1), Periodic(DirNone),
		PeriodicMagnitude(DirWrite, MagNone), PeriodicMagnitude(DirWrite, MagDayOrMore+1), PeriodicBusy(DirNone, true),
	} {
		if got != "" {
			t.Fatalf("constructor outside the taxonomy = %q", got)
		}
	}
}

func TestMagnitudeOf(t *testing.T) {
	cases := []struct {
		period float64
		want   PeriodMagnitude
	}{
		{-1, MagNone}, {0, MagNone},
		{0.5, MagSecond}, {59.9, MagSecond},
		{60, MagMinute}, {3599, MagMinute},
		{3600, MagHour}, {86399, MagHour},
		{86400, MagDayOrMore}, {1e7, MagDayOrMore},
	}
	for _, c := range cases {
		if got := MagnitudeOf(c.period); got != c.want {
			t.Errorf("MagnitudeOf(%g) = %v, want %v", c.period, got, c.want)
		}
	}
}

func TestAxisAndDirection(t *testing.T) {
	cases := []struct {
		c    Category
		axis Axis
		dir  Direction
	}{
		{"read_on_start", AxisTemporality, DirRead},
		{"write_steady", AxisTemporality, DirWrite},
		{"write_periodic", AxisPeriodicity, DirWrite},
		{"read_periodic_minute", AxisPeriodicity, DirRead},
		{"write_periodic_low_busy_time", AxisPeriodicity, DirWrite},
		{"metadata_high_spike", AxisMetadata, DirNone},
		{"metadata_insignificant_load", AxisMetadata, DirNone},
	}
	for _, c := range cases {
		if got := c.c.Axis(); got != c.axis {
			t.Errorf("%q.Axis() = %v, want %v", c.c, got, c.axis)
		}
		if got := c.c.Direction(); got != c.dir {
			t.Errorf("%q.Direction() = %v, want %v", c.c, got, c.dir)
		}
	}
}

func TestAllIsClosedAndDistinct(t *testing.T) {
	all := All()
	// 2 directions x (7 temporal + 1 periodic + 4 magnitudes + 2 busy) + 4 metadata
	want := 2*(7+1+4+2) + 4
	if len(all) != want {
		t.Fatalf("All() has %d categories, want %d", len(all), want)
	}
	seen := map[Category]bool{}
	for _, c := range all {
		if seen[c] {
			t.Fatalf("duplicate category %q", c)
		}
		seen[c] = true
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet("read_on_start", "metadata_high_spike")
	if !s.Has("read_on_start") || s.Has("write_on_end") {
		t.Fatal("Has broken")
	}
	s.Add("write_on_end")
	if !s.HasAll("read_on_start", "write_on_end") {
		t.Fatal("HasAll broken")
	}
	if s.HasAll("read_on_start", "nope") {
		t.Fatal("HasAll false positive")
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatal("Sorted not sorted")
		}
	}
}

func TestSetEqualCopy(t *testing.T) {
	a := NewSet("read_steady", "write_steady")
	b := a
	if !a.Equal(b) {
		t.Fatal("copy should equal original")
	}
	b.Add("metadata_high_density")
	if a.Equal(b) || a.Has("metadata_high_density") {
		t.Fatal("copy not independent")
	}
	if NewSet("read_steady").Equal(NewSet("write_steady")) {
		t.Fatal("different sets equal")
	}
}

func TestSetStringParseRoundTrip(t *testing.T) {
	f := func(mask uint16) bool {
		all := All()
		s := NewSet()
		for i, c := range all {
			if mask&(1<<(i%16)) != 0 && i < 16 {
				s.Add(c)
			}
		}
		return ParseSet(s.String()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := ParseSet(" read_steady, write_steady ,, metadata_high_spike "); got.Len() != 3 || got&Open != 0 {
		t.Fatalf("ParseSet whitespace handling: %v", got)
	}
	if got := ParseSet(""); got != 0 {
		t.Fatalf("ParseSet empty: %v", got)
	}
}

func TestStringers(t *testing.T) {
	if AxisTemporality.String() != "temporality" || AxisPeriodicity.String() != "periodicity" || AxisMetadata.String() != "metadata" {
		t.Fatal("axis strings")
	}
	if DirRead.String() != "read" || DirWrite.String() != "write" || DirNone.String() != "" {
		t.Fatal("direction strings")
	}
	kinds := TemporalKinds()
	if len(kinds) != 7 {
		t.Fatalf("TemporalKinds = %d", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k.String()] {
			t.Fatal("duplicate temporal kind string")
		}
		seen[k.String()] = true
	}
	mags := []PeriodMagnitude{MagNone, MagSecond, MagMinute, MagHour, MagDayOrMore}
	for _, m := range mags {
		if m.String() == "" {
			t.Fatal("empty magnitude string")
		}
	}
}
