package index

import (
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Sorted-set algebra over []uint32 ordinal postings. Every operation
// appends into a caller-supplied destination (typically a pooled
// scratch buffer) and never mutates its inputs, so borrowed
// generation postings can flow through untouched.

// gallopRatio is the size imbalance at which the merge algorithms
// switch from linear scanning to exponential (galloping) search over
// the larger list.
const gallopRatio = 32

// advance returns the smallest i >= lo with s[i] >= x, galloping
// forward then binary-searching the final range.
func advance(s []uint32, lo int, x uint32) int {
	bound := 1
	for lo+bound < len(s) && s[lo+bound] < x {
		bound <<= 1
	}
	hi := lo + bound
	if hi > len(s) {
		hi = len(s)
	}
	lo += bound >> 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectInto appends a ∩ b to dst.
func intersectInto(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, x := range a {
			j = advance(b, j, x)
			if j == len(b) {
				break
			}
			if b[j] == x {
				dst = append(dst, x)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// unionInto appends a ∪ b to dst.
func unionInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// subtractInto appends a \ b to dst.
func subtractInto(dst, a, b []uint32) []uint32 {
	if len(b) == 0 {
		return append(dst, a...)
	}
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, x := range a {
			j = advance(b, j, x)
			if j == len(b) || b[j] != x {
				dst = append(dst, x)
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return append(dst, a[i:]...)
}

// scratch is the pooled per-query workspace: a free list of ordinal
// buffers for the set algebra, node/estimate buffers for AND
// reordering, and delta-overlay state. A warm query allocates nothing
// but its final output.
type scratch struct {
	bufs  [][]uint32
	nodes []*planNode
	ests  []int
	seen  map[store.TraceID]struct{}
	ids   []string
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	// Drop string references so pooled scratch doesn't pin trace IDs.
	clear(sc.ids[:cap(sc.ids)])
	sc.ids = sc.ids[:0]
	sc.nodes = sc.nodes[:0]
	sc.ests = sc.ests[:0]
	if sc.seen != nil {
		clear(sc.seen)
	}
	scratchPool.Put(sc)
}

func (sc *scratch) get() []uint32 {
	if n := len(sc.bufs); n > 0 {
		b := sc.bufs[n-1]
		sc.bufs = sc.bufs[:n-1]
		return b[:0]
	}
	return make([]uint32, 0, 1024)
}

func (sc *scratch) put(b []uint32) {
	if b != nil {
		sc.bufs = append(sc.bufs, b)
	}
}

func (sc *scratch) seenMap() map[store.TraceID]struct{} {
	if sc.seen == nil {
		sc.seen = make(map[store.TraceID]struct{})
	}
	return sc.seen
}
