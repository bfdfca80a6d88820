// Package interval provides time-interval algebra used by the MOSAIC
// pre-processing stage: overlap tests, unions, and the two merging
// algorithms of the paper (concurrent-operation merging and neighbor
// merging, Section III-B2).
//
// All times are float64 seconds relative to the start of the job, which
// matches the semantics of Darshan's timing counters.
package interval

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Interval is a half-open time span [Start, End) with an associated byte
// volume and a count of metadata requests (OPEN/CLOSE/SEEK) attributed to
// the operation. Volume and Meta are additive under merging.
type Interval struct {
	Start float64 // seconds since job start
	End   float64 // seconds since job start, End >= Start
	Bytes int64   // bytes moved during the operation
	Meta  int64   // metadata requests attributed to the operation
}

// ErrInvalid reports a malformed interval (NaN, negative duration, ...).
var ErrInvalid = errors.New("interval: invalid interval")

// Duration returns End - Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Valid reports whether the interval is well formed: finite bounds,
// non-negative duration, non-negative volume and metadata count.
func (iv Interval) Valid() bool {
	if math.IsNaN(iv.Start) || math.IsNaN(iv.End) {
		return false
	}
	if math.IsInf(iv.Start, 0) || math.IsInf(iv.End, 0) {
		return false
	}
	return iv.End >= iv.Start && iv.Bytes >= 0 && iv.Meta >= 0
}

// Check returns a descriptive error if the interval is not well formed.
func (iv Interval) Check() error {
	if !iv.Valid() {
		return fmt.Errorf("%w: [%g, %g) bytes=%d meta=%d", ErrInvalid, iv.Start, iv.End, iv.Bytes, iv.Meta)
	}
	return nil
}

// Overlaps reports whether two intervals share at least one instant.
// Touching intervals ([0,1) and [1,2)) do not overlap.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Contains reports whether t lies within [Start, End).
func (iv Interval) Contains(t float64) bool { return t >= iv.Start && t < iv.End }

// Gap returns the distance between two disjoint intervals, or 0 when they
// overlap or touch.
func (iv Interval) Gap(other Interval) float64 {
	switch {
	case iv.End <= other.Start:
		return other.Start - iv.End
	case other.End <= iv.Start:
		return iv.Start - other.End
	default:
		return 0
	}
}

// Union returns the smallest interval covering both operands, with volumes
// and metadata counts summed. It is the primitive used by both merging
// algorithms.
func (iv Interval) Union(other Interval) Interval {
	return Interval{
		Start: min(iv.Start, other.Start),
		End:   max(iv.End, other.End),
		Bytes: addSaturating(iv.Bytes, other.Bytes),
		Meta:  addSaturating(iv.Meta, other.Meta),
	}
}

// addSaturating is a + b clamped to the int64 range. Counters are
// validated non-negative one by one, not in sum: two volumes near 2^63
// must not wrap into a negative one.
func addSaturating(a, b int64) int64 {
	s := a + b
	if (a^s)&(b^s) < 0 { // both operands have the sign the sum lacks
		if a < 0 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return s
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	return fmt.Sprintf("[%.3fs, %.3fs) %dB %dmeta", iv.Start, iv.End, iv.Bytes, iv.Meta)
}

// SortByStart sorts intervals in place by (Start, End), into the order
// slices.SortFunc(ivs, byStart) gives them, up to intervals that tie on
// both. It sorts one word per interval with slices.Sort — orderKey(Start)
// with its low bits given over to the interval's index — moves every
// interval once to the place of its word, and then puts each run of words
// with equal keys, equal Starts among them, in (Start, End) order:
// mergeConcurrent fuses [s,s] with [s,e] only in that order.
func SortByStart(ivs []Interval) {
	n := len(ivs)
	if n < 2 {
		return
	}
	wp := wordPool.Get().(*[]uint64)
	words := slices.Grow((*wp)[:0], n)[:n]
	idxBits := bits.Len(uint(n - 1))
	index := uint64(1)<<idxBits - 1
	for i := range ivs {
		words[i] = orderKey(ivs[i].Start)&^index | uint64(i)
	}
	slices.Sort(words)
	// ivs[i] takes the interval at index(words[i]). Following each cycle of
	// that permutation moves every interval once; a word whose index is
	// its own position is in place.
	for i := range words {
		if words[i]&index == uint64(i) {
			continue
		}
		held := ivs[i]
		j := i
		for {
			k := int(words[j] & index)
			words[j] = words[j]&^index | uint64(j)
			if k == i {
				ivs[j] = held
				break
			}
			ivs[j] = ivs[k]
			j = k
		}
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && words[j]&^index == words[i]&^index {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ivs[i:j], byStart)
		}
		i = j
	}
	*wp = words
	wordPool.Put(wp)
}

// wordPool holds SortByStart's words, 8 bytes per interval.
var wordPool = sync.Pool{New: func() any { return new([]uint64) }}

// orderKey maps a float64 to a uint64 that orders as the float does
// under <: the sign bit flipped on non-negatives, every bit on
// negatives. −0 is taken as +0 first, since the two compare equal. NaNs
// land above +Inf (sign clear) or below −Inf (sign set); no comparison
// sort gives them a place.
func orderKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// byStart orders by (Start, End) with plain comparisons.
func byStart(a, b Interval) int {
	switch {
	case a.Start < b.Start:
		return -1
	case a.Start > b.Start:
		return 1
	case a.End < b.End:
		return -1
	case a.End > b.End:
		return 1
	}
	return 0
}

// TotalBytes sums the byte volume of all intervals.
func TotalBytes(ivs []Interval) int64 {
	var n int64
	for _, iv := range ivs {
		n = addSaturating(n, iv.Bytes)
	}
	return n
}

// TotalMeta sums the metadata requests of all intervals.
func TotalMeta(ivs []Interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.Meta
	}
	return n
}

// BusyTime returns the cumulative duration of all intervals. On merged
// (disjoint) interval sets it equals the time the application spent doing
// I/O, used for the periodic_{low,high}_busy_time categories.
func BusyTime(ivs []Interval) float64 {
	var d float64
	for _, iv := range ivs {
		d += iv.Duration()
	}
	return d
}

// Span returns the interval covering all operations: from the earliest
// start to the latest end. Span of an empty set is the zero Interval.
func Span(ivs []Interval) Interval {
	if len(ivs) == 0 {
		return Interval{}
	}
	sp := Interval{Start: math.Inf(1), End: math.Inf(-1)}
	for _, iv := range ivs {
		sp.Start = math.Min(sp.Start, iv.Start)
		sp.End = math.Max(sp.End, iv.End)
	}
	return sp
}

// NeighborPolicy holds the thresholds of algorithm (2)(b). A gap between
// two consecutive operations is negligible — and the operations are merged
// — when it is shorter than RuntimeFraction of the job runtime OR shorter
// than NeighborFraction of the duration of the adjacent merged operation.
type NeighborPolicy struct {
	RuntimeFraction  float64 // paper default: 0.001 (0.1% of total execution time)
	NeighborFraction float64 // paper default: 0.01  (1% of neighbor merged op duration)
}

// DefaultNeighborPolicy returns the thresholds used in the paper.
func DefaultNeighborPolicy() NeighborPolicy {
	return NeighborPolicy{RuntimeFraction: 0.001, NeighborFraction: 0.01}
}

// MergeInPlace is the MOSAIC pre-processing of one direction, run inside
// the caller's slice: clip to [0, runtime), sort by (Start, End), then the
// paper's two merges (Section III-B2), each a single left-to-right sweep
// that writes behind its read position. merged is a prefix of ivs — sorted,
// pairwise disjoint, volumes and metadata counts preserved — and the rest
// of ivs is garbage; clipped and concurrent count the operations left
// after clipping and after the concurrent merge.
//
// Intervals must be NaN-free with End >= Start (validated traces are).
// Operations that tie on (Start, End) always fuse and Union is min/max
// plus integer sums, so the order the sort leaves ties in never shows.
func MergeInPlace(ivs []Interval, runtime float64, p NeighborPolicy) (merged []Interval, clipped, concurrent int) {
	ivs = clip(ivs, runtime)
	clipped = len(ivs)
	SortByStart(ivs)
	ivs = mergeConcurrent(ivs)
	concurrent = len(ivs)
	return mergeNeighbors(ivs, runtime, p), clipped, concurrent
}

// clip restricts every interval to [0, runtime), dropping intervals that
// fall entirely outside: slightly out-of-range trace entries that are not
// corrupted enough to evict.
func clip(ivs []Interval, runtime float64) []Interval {
	out := ivs[:0]
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

// mergeConcurrent implements algorithm (2)(a) on sorted input: any two
// overlapping (or exactly abutting) operations are fused into one.
//
// This manages rank desynchronization: several processes writing to the
// same file slightly out of step appear as a single logical operation. It
// also declutters the trace so that segmentation sees one event per I/O
// phase.
func mergeConcurrent(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return ivs
	}
	out, cur := ivs[:0], ivs[0]
	for _, iv := range ivs[1:] {
		if cur.Overlaps(iv) || iv.Start == cur.End {
			cur = cur.Union(iv)
			continue
		}
		out, cur = append(out, cur), iv
	}
	return append(out, cur)
}

// mergeNeighbors implements algorithm (2)(b) on the output of
// mergeConcurrent: consecutive operations whose separating gap is
// negligible under the policy are fused.
//
// Operations that slide slowly out of sync — no longer overlapping but
// still close — are re-attached to the same logical phase here.
func mergeNeighbors(ivs []Interval, runtime float64, p NeighborPolicy) []Interval {
	if len(ivs) == 0 {
		return ivs
	}
	out, cur := ivs[:0], ivs[0]
	for _, iv := range ivs[1:] {
		if gap := cur.Gap(iv); gap <= p.RuntimeFraction*runtime || gap <= p.NeighborFraction*cur.Duration() {
			cur = cur.Union(iv)
			continue
		}
		out, cur = append(out, cur), iv
	}
	return append(out, cur)
}

// Disjoint reports whether the (sorted) intervals are pairwise disjoint.
func Disjoint(ivs []Interval) bool {
	for i := 1; i < len(ivs); i++ {
		if ivs[i-1].Overlaps(ivs[i]) {
			return false
		}
	}
	return true
}

// Sorted reports whether the intervals are sorted by (Start, End).
func Sorted(ivs []Interval) bool {
	return slices.IsSortedFunc(ivs, byStart)
}
