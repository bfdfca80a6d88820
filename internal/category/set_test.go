package category

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMaskBitsAreFrozen spells out which bit stands for which category.
// Stored result records carry these bits: a label may be appended here
// (and to All()), never moved or removed.
func TestMaskBitsAreFrozen(t *testing.T) {
	frozen := []string{
		"read_on_start", "read_on_end", "read_after_start", "read_before_end",
		"read_after_start_before_end", "read_steady", "read_insignificant",
		"read_periodic", "read_periodic_second", "read_periodic_minute", "read_periodic_hour",
		"read_periodic_day_or_more", "read_periodic_low_busy_time", "read_periodic_high_busy_time",
		"write_on_start", "write_on_end", "write_after_start", "write_before_end",
		"write_after_start_before_end", "write_steady", "write_insignificant",
		"write_periodic", "write_periodic_second", "write_periodic_minute", "write_periodic_hour",
		"write_periodic_day_or_more", "write_periodic_low_busy_time", "write_periodic_high_busy_time",
		"metadata_high_spike", "metadata_multiple_spikes", "metadata_high_density", "metadata_insignificant_load",
	}
	all := All()
	if len(all) < len(frozen) || len(all) > 63 {
		t.Fatalf("All() has %d categories; %d are frozen and a mask has 63 bits for them", len(all), len(frozen))
	}
	for i, name := range frozen {
		if string(all[i]) != name {
			t.Fatalf("All()[%d] = %q, but bit %d of every stored mask means %q", i, all[i], i, name)
		}
		if got := Of([]string{name}); got != 1<<i {
			t.Fatalf("Of(%q) = %#x, want bit %d", name, got, i)
		}
	}
}

func TestOf(t *testing.T) {
	if got := Of(nil); got != 0 {
		t.Fatalf("Of(nil) = %#x", got)
	}
	got := Of([]string{"metadata_insignificant_load", "read_on_start", "read_on_start"})
	if want := Set(1<<31 | 1<<0); got != want {
		t.Fatalf("set %#x, want %#x", got, want)
	}
	// A label outside the closed set opens the set, sets nothing else and
	// keeps the rest.
	if got := Of([]string{"custom_label"}); got != Open {
		t.Fatalf("unknown name alone: %#x, want only Open", got)
	}
	got = Of([]string{"write_on_end", "custom_label"})
	if want := Open | 1<<15; got != want {
		t.Fatalf("open set %#x, want %#x", got, want)
	}
	if got.Len() != 1 || got.Has("custom_label") || got.HasAll("custom_label") || !got.Has("write_on_end") {
		t.Fatalf("open set %#x: Len %d, or membership of the unknown name", got, got.Len())
	}
	if s := got.Strings(); len(s) != 1 || s[0] != "write_on_end" {
		t.Fatalf("open set renders %v", s)
	}
}

// mapSet is the representation Set replaced, kept as the reference the
// word is checked against.
type mapSet map[Category]struct{}

func (m mapSet) sorted() []string {
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, string(c))
	}
	sort.Strings(out)
	return out
}

func (m mapSet) hasAll(cs ...Category) bool {
	for _, c := range cs {
		if _, ok := m[c]; !ok {
			return false
		}
	}
	return true
}

func TestSetAgainstMapOracle(t *testing.T) {
	all := All()
	if len(all) != N {
		t.Fatalf("All() has %d categories, N is %d", len(all), N)
	}
	words := []uint64{0, 1<<N - 1}
	for i := 0; i < N; i++ {
		words = append(words, 1<<i)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10000; i++ {
		words = append(words, rng.Uint64()&(1<<N-1))
	}
	for _, w := range words {
		s, ref := Set(w), mapSet{}
		var probe []Category
		for i, c := range all {
			if w>>i&1 != 0 {
				ref[c] = struct{}{}
				if NewSet(c) != 1<<i || !s.Has(c) {
					t.Fatalf("%#x: member %q (bit %d) not found", w, c, i)
				}
			} else if s.Has(c) {
				t.Fatalf("%#x: Has(%q) on a clear bit", w, c)
			}
			if rng.Intn(4) == 0 {
				probe = append(probe, c)
			}
		}
		want := ref.sorted()
		if got := s.Strings(); !slices.Equal(got, want) || got == nil {
			t.Fatalf("%#x: Strings() = %v, the map's sorted names %v", w, got, want)
		}
		sorted := s.Sorted()
		for i, c := range sorted {
			if string(c) != want[i] {
				t.Fatalf("%#x: Sorted() = %v, want %v", w, sorted, want)
			}
		}
		if len(sorted) != len(want) || s.Len() != len(ref) || s.Len() != bits.OnesCount64(w) {
			t.Fatalf("%#x: Len %d, Sorted %d, map %d", w, s.Len(), len(sorted), len(ref))
		}
		if got := ParseSet(s.String()); got != s || !got.Equal(s) {
			t.Fatalf("%#x: ParseSet(String()) = %#x", w, got)
		}
		if got := Of(s.Strings()); got != s {
			t.Fatalf("%#x: Of(Strings()) = %#x", w, got)
		}
		if got := NewSet(sorted...); got != s {
			t.Fatalf("%#x: NewSet(Sorted()...) = %#x", w, got)
		}
		if got, want := s.HasAll(probe...), ref.hasAll(probe...); got != want {
			t.Fatalf("%#x: HasAll(%v) = %v, the map says %v", w, probe, got, want)
		}
	}
}

// The axis sets partition the taxonomy's bits, and so do the direction
// sets; both agree with the names.
func TestAxisAndDirectionSetsPartition(t *testing.T) {
	axes := []Axis{AxisTemporality, AxisPeriodicity, AxisMetadata}
	dirs := []Direction{DirRead, DirWrite, DirNone}
	var union Set
	for _, a := range axes {
		if union&a.Set() != 0 {
			t.Fatalf("axis %v overlaps another", a)
		}
		union |= a.Set()
	}
	if union != Closed || AxisNone.Set() != 0 {
		t.Fatalf("axis sets cover %#x, want %#x", union, Closed)
	}
	union = 0
	for _, d := range dirs {
		if union&d.Set() != 0 {
			t.Fatalf("direction %v overlaps another", d)
		}
		union |= d.Set()
	}
	if union != Closed {
		t.Fatalf("direction sets cover %#x, want %#x", union, Closed)
	}
	for _, c := range All() {
		name := string(c)
		axis, dir := AxisTemporality, DirNone
		switch {
		case strings.HasPrefix(name, "metadata_"):
			axis = AxisMetadata
		case strings.Contains(name, "_periodic"):
			axis = AxisPeriodicity
		}
		switch {
		case strings.HasPrefix(name, "read_"):
			dir = DirRead
		case strings.HasPrefix(name, "write_"):
			dir = DirWrite
		}
		if c.Axis() != axis || c.Direction() != dir || !axis.Set().Has(c) || !dir.Set().Has(c) {
			t.Errorf("%q: axis %v direction %v, its name says %v %v", c, c.Axis(), c.Direction(), axis, dir)
		}
	}
	if c := Category("site_custom_label"); c.Axis() != AxisNone || c.Direction() != DirNone {
		t.Errorf("a name outside the taxonomy has axis %v direction %v", c.Axis(), c.Direction())
	}
}

// TestTablesFollowTheirRules derives the literal tables from the rules
// they encode: names from the per-direction layout and the kinds' String
// methods, byName by sorting, and Bit as their inverse.
func TestTablesFollowTheirRules(t *testing.T) {
	var want [N]Category
	for b, d := range []Direction{DirRead, DirWrite} {
		dir, p := want[b*perDir:], d.String()
		for _, k := range TemporalKinds() {
			dir[k] = Category(p + "_" + k.String())
		}
		dir[offPeriodic] = Category(p + "_periodic")
		for m := MagSecond; m <= MagDayOrMore; m++ {
			dir[offPeriodic+m] = Category(p + "_periodic_" + m.String())
		}
		dir[offBusy] = Category(p + "_periodic_low_busy_time")
		dir[offBusy+1] = Category(p + "_periodic_high_busy_time")
	}
	copy(want[metaBase:], []Category{MetaHighSpike, MetaMultipleSpikes, MetaHighDensity, MetaInsignificantLoad})
	if names != want {
		t.Fatalf("names = %q\nwant %q", names, want)
	}

	var order [N]uint8
	for i := range order {
		order[i] = uint8(i)
	}
	sort.Slice(order[:], func(i, j int) bool { return names[order[i]] < names[order[j]] })
	if byName != order {
		t.Fatalf("byName = %v, want %v", byName, order)
	}

	for i, c := range names {
		if bit, ok := c.Bit(); !ok || bit != i {
			t.Fatalf("%q.Bit() = %d, %v; want %d", c, bit, ok, i)
		}
	}
	for _, c := range []Category{"", "a", "read", "read_on", "read_on_start_", "metadata_high_spikes", "zzz", "READ_ON_START"} {
		if bit, ok := c.Bit(); ok {
			t.Fatalf("%q.Bit() = %d, true; it is outside the taxonomy", c, bit)
		}
	}
}
