package interval

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// checkSort holds SortByStart to slices.SortFunc(ivs, byStart): the same
// (Start, End) at every position, and a permutation of the input (Bytes
// carries each interval's input index).
func checkSort(t *testing.T, ivs []Interval) {
	t.Helper()
	for i := range ivs {
		ivs[i].Bytes = int64(i)
	}
	want := slices.Clone(ivs)
	slices.SortFunc(want, byStart)
	got := slices.Clone(ivs)
	SortByStart(got)
	seen := make([]bool, len(ivs))
	for i := range got {
		if byStart(got[i], want[i]) != 0 {
			t.Fatalf("n=%d: position %d holds %v, slices.SortFunc put %v there\ninput %v", len(ivs), i, got[i], want[i], ivs)
		}
		if seen[got[i].Bytes] {
			t.Fatalf("n=%d: interval %d appears twice", len(ivs), got[i].Bytes)
		}
		seen[got[i].Bytes] = true
	}
}

// fuzzIntervals cuts n intervals from data, nine bytes each (a control
// byte and 64 raw bits), wrapping around when data runs out. The control
// byte picks the start — the raw bits, the previous start or one that
// differs from it in its lowest bits only, ±0, or a subnormal — and
// whether the interval has zero length; otherwise the end is the raw bits
// rotated. NaNs become 0: they have no order to compare.
func fuzzIntervals(data []byte, n int) []Interval {
	windows := len(data) / 9
	if windows == 0 {
		return nil
	}
	notNaN := func(f float64) float64 {
		if math.IsNaN(f) {
			return 0
		}
		return f
	}
	ivs := make([]Interval, n)
	for i := range ivs {
		w := data[9*(i%windows):]
		ctl := w[0]
		raw := binary.LittleEndian.Uint64(w[1:9]) ^ uint64(i/windows)*0x9e3779b97f4a7c15
		sign := uint64(ctl&4) << 61
		var s float64
		switch ctl & 3 {
		case 0:
			s = math.Float64frombits(raw)
		case 1:
			if i > 0 {
				s = ivs[i-1].Start
			}
			if ctl&16 != 0 { // lost where the word holds the index
				s = math.Float64frombits(math.Float64bits(s) ^ raw&0xfff)
			}
		case 2:
			s = math.Float64frombits(sign)
		case 3:
			s = math.Float64frombits(sign | raw&(1<<52-1))
		}
		s = notNaN(s)
		e := s
		if ctl&8 == 0 {
			e = notNaN(math.Float64frombits(raw<<17 | raw>>47))
		}
		ivs[i] = Interval{Start: s, End: e}
	}
	return ivs
}

// FuzzSortByStart compares SortByStart with slices.SortFunc on intervals
// cut from raw bit patterns, at a length of the fuzzer's choosing up to
// 511, so the index takes from 1 to 9 of a word's low bits.
func FuzzSortByStart(f *testing.F) {
	word := func(ctl byte, bits uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{ctl}, bits)
	}
	var mixed []byte
	for _, w := range [][]byte{
		word(2, 0), word(6, 0), // +0, −0
		word(3, 1), word(7, 1<<52-1), // smallest subnormal, largest negative one
		word(0, math.Float64bits(math.MaxFloat64)), word(0, math.Float64bits(-math.MaxFloat64)),
		word(0, math.Float64bits(math.Inf(1))), word(0, math.Float64bits(math.Inf(-1))),
		word(0, math.Float64bits(3.5)), word(1, math.Float64bits(9)), word(9, 0), // equal starts, then zero length
		word(17, 0x801), word(17, 0x3), // starts a few ulps from the last
		word(0, math.Float64bits(1e300)), word(0, math.Float64bits(1e-300)),
	} {
		mixed = append(mixed, w...)
	}
	for _, n := range []uint16{0, 1, 2, 13, 64, 65, 300} {
		f.Add(mixed, n)
		f.Add(word(0, math.Float64bits(12.25)), n)
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		checkSort(t, fuzzIntervals(data, int(n)%512))
	})
}

// TestSortByStartBreaksTiesByEnd pins why End orders equal starts: a
// zero-length operation [s,s] fuses with [s,e] only when it comes first,
// since after [s,e] it neither overlaps it nor starts at its end. The
// pair alone and among others, with [s,e] ahead in the input.
func TestSortByStartBreaksTiesByEnd(t *testing.T) {
	pair := []Interval{{Start: 5, End: 7, Bytes: 8}, {Start: 5, End: 5, Meta: 3}}
	if got := mergeConcurrent(slices.Clone(pair)); len(got) != 2 {
		t.Fatalf("[5,7] then [5,5] merged into %v; the premise of this test is gone", got)
	}
	for _, filler := range []int{0, 100} {
		ivs := slices.Clone(pair)
		for i := 0; i < filler; i++ {
			ivs = append(ivs, Interval{Start: 100 + float64(i), End: 100.5 + float64(i)})
		}
		SortByStart(ivs)
		if ivs[0].End != 5 || ivs[1].End != 7 {
			t.Fatalf("n=%d: sorted %v, want [5,5] ahead of [5,7]", len(ivs), ivs[:2])
		}
		merged, _, conc := MergeInPlace(ivs, 1e6, NeighborPolicy{})
		if conc != 1+filler || merged[0] != (Interval{Start: 5, End: 7, Bytes: 8, Meta: 3}) {
			t.Fatalf("n=%d: %d operations after the concurrent merge, first %v", len(ivs), conc, merged[0])
		}
	}
}

// TestSortByStartSignedZeroAndNegatives runs the sort's edge keys — −0
// beside +0, negatives, subnormals, infinities — as starts against every
// one of them as an end, so that a +0 start with a lower end than a −0
// start must come first; then one long run of equal starts.
func TestSortByStartSignedZeroAndNegatives(t *testing.T) {
	negZero := math.Copysign(0, -1)
	edge := []float64{negZero, 0, -1, 1, -1e-310, 1e-310, math.Inf(1), math.Inf(-1), -math.MaxFloat64, 4}
	var cross []Interval
	for _, e := range edge {
		for _, s := range edge {
			cross = append(cross, Interval{Start: s, End: e})
		}
	}
	for _, n := range []int{len(edge), 47, 55, 240} {
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = cross[i%len(cross)]
		}
		checkSort(t, ivs)
	}
	same := make([]Interval, 144)
	for i := range same {
		same[i] = Interval{Start: 2, End: float64(len(same) - i)}
	}
	checkSort(t, same)
}
