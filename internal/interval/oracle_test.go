package interval

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The pre-processing as it stood before MergeInPlace — a fresh slice per
// step, sort.Slice, math.Min/Max — kept as the reference the kernel is
// held to.

func oracleClip(ivs []Interval, runtime float64) []Interval {
	out := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.End <= 0 || iv.Start >= runtime {
			continue
		}
		if iv.Start < 0 {
			iv.Start = 0
		}
		if iv.End > runtime {
			iv.End = runtime
		}
		out = append(out, iv)
	}
	return out
}

func oracleUnion(a, b Interval) Interval {
	return Interval{
		Start: math.Min(a.Start, b.Start),
		End:   math.Max(a.End, b.End),
		Bytes: oracleAdd(a.Bytes, b.Bytes),
		Meta:  oracleAdd(a.Meta, b.Meta),
	}
}

// oracleAdd sums two counts, a sum past the int64 range being its end.
func oracleAdd(a, b int64) int64 {
	switch s := a + b; {
	case a > 0 && b > 0 && s < 0:
		return math.MaxInt64
	case a < 0 && b < 0 && s >= 0:
		return math.MinInt64
	default:
		return s
	}
}

func oracleMergeConcurrent(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := make([]Interval, len(ivs))
	copy(sorted, ivs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	out := make([]Interval, 0, len(sorted))
	cur := sorted[0]
	for _, iv := range sorted[1:] {
		if cur.Overlaps(iv) || iv.Start == cur.End {
			cur = oracleUnion(cur, iv)
			continue
		}
		out = append(out, cur)
		cur = iv
	}
	return append(out, cur)
}

func oracleMergeNeighbors(ivs []Interval, runtime float64, p NeighborPolicy) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	out := make([]Interval, 0, len(ivs))
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		gap := cur.Gap(iv)
		if gap <= p.RuntimeFraction*runtime || gap <= p.NeighborFraction*cur.Duration() {
			cur = oracleUnion(cur, iv)
			continue
		}
		out = append(out, cur)
		cur = iv
	}
	return append(out, cur)
}

// OracleMerge is the old Clip → MergeConcurrent → MergeNeighbors chain
// with the counts the explain funnel read off it. ivs is left untouched.
func OracleMerge(ivs []Interval, runtime float64, p NeighborPolicy) (merged []Interval, clipped, concurrent int) {
	ops := oracleClip(ivs, runtime)
	conc := oracleMergeConcurrent(ops)
	return oracleMergeNeighbors(conc, runtime, p), len(ops), len(conc)
}

// CheckAgainstOracle runs the kernel on a copy of ivs and fails the test
// unless merged operations and both counts are the oracle's, bit for bit.
func CheckAgainstOracle(t testing.TB, ivs []Interval, runtime float64, p NeighborPolicy) {
	t.Helper()
	want, wantClipped, wantConc := OracleMerge(ivs, runtime, p)
	got, clipped, conc := MergeInPlace(slices.Clone(ivs), runtime, p)
	if clipped != wantClipped || conc != wantConc {
		t.Fatalf("counts: clipped %d concurrent %d, oracle %d and %d (runtime %g, %+v)\ninput %v", clipped, conc, wantClipped, wantConc, runtime, p, ivs)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !slices.EqualFunc(got, want, func(a, b Interval) bool {
		return same(a.Start, b.Start) && same(a.End, b.End) && a.Bytes == b.Bytes && a.Meta == b.Meta
	}) {
		t.Fatalf("merged %v, oracle %v (runtime %g, %+v)\ninput %v", got, want, runtime, p, ivs)
	}
}

// Copying forms of the kernel's steps, for the step tests in
// interval_test.go, which keep their inputs.

func Clip(ivs []Interval, runtime float64) []Interval { return clip(slices.Clone(ivs), runtime) }

func MergeConcurrent(ivs []Interval) []Interval {
	ivs = slices.Clone(ivs)
	SortByStart(ivs)
	return mergeConcurrent(ivs)
}

func MergeNeighbors(ivs []Interval, runtime float64, p NeighborPolicy) []Interval {
	return mergeNeighbors(slices.Clone(ivs), runtime, p)
}

func Merge(ivs []Interval, runtime float64, p NeighborPolicy) []Interval {
	return MergeNeighbors(MergeConcurrent(ivs), runtime, p)
}

// WellFormed reports whether the kernel's contract holds for ivs.
func WellFormed(ivs []Interval) bool {
	for _, iv := range ivs {
		if math.IsNaN(iv.Start) || math.IsNaN(iv.End) || iv.End < iv.Start {
			return false
		}
	}
	return true
}

// mergeSeeds are the shapes the sweeps can get wrong: abutting chains,
// zero-length operations on and off a boundary, all-equal keys, reverse
// order, and operations hanging over both ends of the run.
var mergeSeeds = [][]Interval{
	nil,
	{{Start: 3, End: 3, Bytes: 1}},
	{{Start: 0, End: 1, Bytes: 1}, {Start: 1, End: 2, Bytes: 2}, {Start: 2, End: 3, Bytes: 4}},
	{{Start: 5, End: 5, Meta: 1}, {Start: 5, End: 5, Meta: 2}, {Start: 4, End: 5, Bytes: 8}, {Start: 5, End: 6, Bytes: 16}},
	{{Start: 2, End: 4, Bytes: 1}, {Start: 2, End: 4, Bytes: 2}, {Start: 2, End: 4, Bytes: 4}, {Start: 2, End: 4, Bytes: 8}},
	{{Start: 9, End: 10, Bytes: 1}, {Start: 7, End: 8, Bytes: 2}, {Start: 5, End: 6, Bytes: 4}, {Start: 3, End: 4, Bytes: 8}, {Start: 1, End: 2, Bytes: 16}},
	{{Start: -4, End: -1, Bytes: 1}, {Start: -1, End: 2, Bytes: 2}, {Start: 8, End: 30, Bytes: 4}, {Start: 10, End: 12, Bytes: 8}, {Start: 0, End: 0, Meta: 3}},
	{{Start: 0, End: 1, Bytes: 1}, {Start: 1.009, End: 2, Bytes: 2}, {Start: 2.011, End: 3, Bytes: 4}, {Start: 3.5, End: 3.5, Bytes: 8}},
}

func TestMergeInPlaceMatchesOracle(t *testing.T) {
	p := DefaultNeighborPolicy()
	for _, seed := range mergeSeeds {
		for _, runtime := range []float64{10, 0, 3, 1e6} {
			CheckAgainstOracle(t, seed, runtime, p)
		}
	}
	// Random traces on a coarse time grid, so ties on Start, on
	// (Start, End) and exact abutment are all common.
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 400; round++ {
		n := rng.Intn(300)
		ivs := make([]Interval, n)
		for i := range ivs {
			s := float64(rng.Intn(220)-10) / 2
			ivs[i] = Interval{Start: s, End: s + float64(rng.Intn(8))/2, Bytes: rng.Int63n(1 << 40), Meta: rng.Int63n(5)}
		}
		pol := NeighborPolicy{RuntimeFraction: float64(rng.Intn(4)) / 1000, NeighborFraction: float64(rng.Intn(4)) / 100}
		CheckAgainstOracle(t, ivs, 100, pol)
	}
}

// FuzzMergeInPlace feeds the kernel and the oracle intervals, a runtime
// and a policy cut from the fuzzer's bytes: eight bytes per interval
// (start and duration on a 1/4 s grid, so collisions are frequent).
func FuzzMergeInPlace(f *testing.F) {
	encode := func(ivs []Interval) []byte {
		var b []byte
		for _, iv := range ivs {
			s, d := int16(iv.Start*4), uint16((iv.End-iv.Start)*4)
			b = append(b, byte(s), byte(s>>8), byte(d), byte(d>>8), byte(iv.Bytes), byte(iv.Bytes>>8), byte(iv.Bytes>>16), byte(iv.Meta))
		}
		return b
	}
	for _, seed := range mergeSeeds {
		f.Add(encode(seed), 10.0, 0.001, 0.01)
	}
	f.Fuzz(func(t *testing.T, data []byte, runtime, rf, nf float64) {
		var ivs []Interval
		for ; len(data) >= 8; data = data[8:] {
			s := float64(int16(uint16(data[0])|uint16(data[1])<<8)) / 4
			d := float64(uint16(data[2])|uint16(data[3])<<8) / 4
			ivs = append(ivs, Interval{Start: s, End: s + d, Bytes: int64(data[4]) | int64(data[5])<<8 | int64(data[6])<<16, Meta: int64(data[7])})
		}
		CheckAgainstOracle(t, ivs, runtime, NeighborPolicy{RuntimeFraction: rf, NeighborFraction: nf})
	})
}
