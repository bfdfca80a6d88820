package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func iv(start, end float64, bytes int64) Interval {
	return Interval{Start: start, End: end, Bytes: bytes}
}

func TestDuration(t *testing.T) {
	if got := iv(1, 3.5, 0).Duration(); got != 2.5 {
		t.Fatalf("Duration = %g, want 2.5", got)
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		name string
		in   Interval
		want bool
	}{
		{"ok", iv(0, 1, 10), true},
		{"zero-length", iv(1, 1, 0), true},
		{"inverted", iv(2, 1, 0), false},
		{"nan-start", Interval{Start: math.NaN(), End: 1}, false},
		{"nan-end", Interval{Start: 0, End: math.NaN()}, false},
		{"inf", Interval{Start: 0, End: math.Inf(1)}, false},
		{"negative-bytes", Interval{Start: 0, End: 1, Bytes: -1}, false},
		{"negative-meta", Interval{Start: 0, End: 1, Meta: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.in.Valid(); got != c.want {
				t.Fatalf("Valid(%v) = %v, want %v", c.in, got, c.want)
			}
			if err := c.in.Check(); (err == nil) != c.want {
				t.Fatalf("Check(%v) = %v", c.in, err)
			}
		})
	}
}

func TestOverlaps(t *testing.T) {
	a := iv(0, 2, 0)
	cases := []struct {
		b    Interval
		want bool
	}{
		{iv(1, 3, 0), true},
		{iv(2, 3, 0), false}, // touching is not overlapping
		{iv(-1, 0, 0), false},
		{iv(0.5, 1.5, 0), true}, // contained
		{iv(-1, 5, 0), true},    // containing
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps symmetric (%v, %v) = %v, want %v", c.b, a, got, c.want)
		}
	}
}

func TestGap(t *testing.T) {
	a := iv(0, 2, 0)
	if g := a.Gap(iv(5, 6, 0)); g != 3 {
		t.Fatalf("Gap = %g, want 3", g)
	}
	if g := iv(5, 6, 0).Gap(a); g != 3 {
		t.Fatalf("Gap reversed = %g, want 3", g)
	}
	if g := a.Gap(iv(1, 3, 0)); g != 0 {
		t.Fatalf("Gap overlapping = %g, want 0", g)
	}
	if g := a.Gap(iv(2, 3, 0)); g != 0 {
		t.Fatalf("Gap touching = %g, want 0", g)
	}
}

func TestUnionSumsVolumes(t *testing.T) {
	a := Interval{Start: 0, End: 2, Bytes: 10, Meta: 1}
	b := Interval{Start: 1, End: 5, Bytes: 20, Meta: 2}
	u := a.Union(b)
	if u.Start != 0 || u.End != 5 || u.Bytes != 30 || u.Meta != 3 {
		t.Fatalf("Union = %v", u)
	}
	// Each count is validated non-negative, not their sum: two volumes
	// near 2^63 saturate instead of wrapping negative.
	huge := Interval{Start: 0, End: 1, Bytes: math.MaxInt64 - 5, Meta: math.MaxInt64}
	if u := huge.Union(huge); u.Bytes != math.MaxInt64 || u.Meta != math.MaxInt64 {
		t.Fatalf("Union of huge volumes = %v", u)
	}
	if n := TotalBytes([]Interval{huge, huge}); n != math.MaxInt64 {
		t.Fatalf("TotalBytes of huge volumes = %d", n)
	}
}

func TestMergeConcurrentBasic(t *testing.T) {
	in := []Interval{iv(0, 2, 1), iv(1, 3, 1), iv(5, 6, 1)}
	out := MergeConcurrent(in)
	if len(out) != 2 {
		t.Fatalf("merged to %d intervals, want 2: %v", len(out), out)
	}
	if out[0].Start != 0 || out[0].End != 3 || out[0].Bytes != 2 {
		t.Fatalf("first merged = %v", out[0])
	}
}

func TestMergeConcurrentAbutting(t *testing.T) {
	out := MergeConcurrent([]Interval{iv(0, 1, 1), iv(1, 2, 1)})
	if len(out) != 1 {
		t.Fatalf("abutting intervals should merge, got %v", out)
	}
}

func TestMergeConcurrentUnsortedInput(t *testing.T) {
	in := []Interval{iv(5, 6, 1), iv(0, 2, 1), iv(1, 3, 1)}
	out := MergeConcurrent(in)
	if len(out) != 2 || out[0].Start != 0 {
		t.Fatalf("unsorted input mishandled: %v", out)
	}
	// Input must not be reordered.
	if in[0].Start != 5 {
		t.Fatal("input slice was modified")
	}
}

func TestMergeConcurrentEmpty(t *testing.T) {
	if out := MergeConcurrent(nil); out != nil {
		t.Fatalf("MergeConcurrent(nil) = %v", out)
	}
}

func TestMergeNeighborsRuntimeFraction(t *testing.T) {
	// Gap of 0.5s over a 1000s run: 0.05% < 0.1% threshold -> merge.
	p := DefaultNeighborPolicy()
	out := MergeNeighbors([]Interval{iv(0, 1, 1), iv(1.5, 2.5, 1)}, 1000, p)
	if len(out) != 1 {
		t.Fatalf("negligible gap not merged: %v", out)
	}
	// Gap of 5s over a 1000s run: 0.5% > 0.1%, and 5 > 1% of 1s -> keep.
	out = MergeNeighbors([]Interval{iv(0, 1, 1), iv(6, 7, 1)}, 1000, p)
	if len(out) != 2 {
		t.Fatalf("significant gap merged: %v", out)
	}
}

func TestMergeNeighborsNeighborFraction(t *testing.T) {
	// Long op (200s) followed after a 1.5s gap: 1.5 < 1% of 200 -> merge
	// even though 1.5s > 0.1% of the 1000s runtime (1s).
	p := DefaultNeighborPolicy()
	out := MergeNeighbors([]Interval{iv(0, 200, 1), iv(201.5, 202, 1)}, 1000, p)
	if len(out) != 1 {
		t.Fatalf("gap within neighbor fraction not merged: %v", out)
	}
}

func TestMergeNeighborsChainGrowth(t *testing.T) {
	// Merging grows the current op; later gaps compare against the grown
	// duration.
	p := NeighborPolicy{RuntimeFraction: 0, NeighborFraction: 0.1}
	in := []Interval{iv(0, 10, 1), iv(10.5, 20, 1), iv(21.5, 22, 1)}
	// After merging the first two (gap 0.5 < 1), cur spans [0,20) dur 20;
	// gap 1.5 < 2 -> merge again.
	out := MergeNeighbors(in, 1000, p)
	if len(out) != 1 {
		t.Fatalf("chained merge failed: %v", out)
	}
}

func TestMergePreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var in []Interval
	for i := 0; i < 200; i++ {
		s := rng.Float64() * 1000
		in = append(in, Interval{Start: s, End: s + rng.Float64()*50, Bytes: rng.Int63n(1e6), Meta: rng.Int63n(10)})
	}
	out := Merge(in, 1000, DefaultNeighborPolicy())
	if TotalBytes(out) != TotalBytes(in) {
		t.Fatalf("bytes not preserved: %d != %d", TotalBytes(out), TotalBytes(in))
	}
	if TotalMeta(out) != TotalMeta(in) {
		t.Fatalf("meta not preserved")
	}
	if !Sorted(out) || !Disjoint(out) {
		t.Fatalf("output not sorted+disjoint")
	}
}

// Property: MergeConcurrent always yields sorted, disjoint intervals with
// preserved byte totals, for arbitrary inputs.
func TestMergeConcurrentProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		var in []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			s := float64(raw[i]) / 10
			d := float64(raw[i+1]) / 100
			in = append(in, Interval{Start: s, End: s + d, Bytes: int64(raw[i]) + 1})
		}
		if len(in) == 0 {
			return MergeConcurrent(in) == nil
		}
		out := MergeConcurrent(in)
		return Sorted(out) && Disjoint(out) && TotalBytes(out) == TotalBytes(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: neighbor merging never increases the operation count and
// preserves the span.
func TestMergeNeighborsProperties(t *testing.T) {
	f := func(raw []uint16, rf, nf uint8) bool {
		var in []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			s := float64(raw[i]) / 10
			in = append(in, Interval{Start: s, End: s + float64(raw[i+1])/100, Bytes: 1})
		}
		in = MergeConcurrent(in)
		if in == nil {
			return true
		}
		p := NeighborPolicy{RuntimeFraction: float64(rf) / 1000, NeighborFraction: float64(nf) / 100}
		out := MergeNeighbors(in, 7000, p)
		if len(out) > len(in) {
			return false
		}
		return Span(out) == Span(in).Union(Interval{Start: Span(in).Start, End: Span(in).End}) ||
			(Span(out).Start == Span(in).Start && Span(out).End == Span(in).End)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClip(t *testing.T) {
	in := []Interval{iv(-5, -1, 1), iv(-1, 2, 2), iv(5, 8, 3), iv(9, 15, 4), iv(20, 30, 5)}
	out := Clip(in, 10)
	if len(out) != 3 {
		t.Fatalf("Clip kept %d, want 3: %v", len(out), out)
	}
	if out[0].Start != 0 || out[0].End != 2 {
		t.Fatalf("first clipped = %v", out[0])
	}
	if out[2].End != 10 {
		t.Fatalf("last clipped = %v", out[2])
	}
}

func TestSpanBusyTotals(t *testing.T) {
	in := []Interval{iv(2, 4, 10), iv(6, 7, 5)}
	sp := Span(in)
	if sp.Start != 2 || sp.End != 7 {
		t.Fatalf("Span = %v", sp)
	}
	if bt := BusyTime(in); bt != 3 {
		t.Fatalf("BusyTime = %g, want 3", bt)
	}
	if Span(nil) != (Interval{}) {
		t.Fatal("Span(nil) not zero")
	}
}

func TestSortByStart(t *testing.T) {
	in := []Interval{iv(3, 4, 0), iv(1, 5, 0), iv(1, 2, 0)}
	SortByStart(in)
	if in[0].End != 2 || in[1].End != 5 || in[2].Start != 3 {
		t.Fatalf("sorted = %v", in)
	}
}
