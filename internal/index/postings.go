package index

import (
	"math/bits"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Set algebra over the ordinals [0, n) of one generation. A set has two
// forms, and a generation stores each posting in the smaller one: a
// sorted []uint32 list (4 bytes per member) or a []uint64 bitmap (one
// bit per ordinal of the generation, tail bits past n zero). AND, OR
// and NOT take either form in either position; a result is a list only
// when it can be no larger than a list operand, otherwise a bitmap.
//
// Ownership: a set with owned unset is borrowed from a generation and
// is never written. An operation may reuse the storage of an owned
// operand for its result; whatever owned storage it does not return
// goes back to the scratch.

type ordSet struct {
	list  []uint32 // !dense: the members, ascending
	bits  []uint64 // dense: bit ord&63 of word ord>>6, (n+63)/64 words
	dense bool
	owned bool // storage came from the scratch
}

// denseIsSmaller is the size rule: a bitmap over n ordinals takes n/8
// bytes, a list of card members 4·card.
func denseIsSmaller(card, n int) bool { return 32*card >= n }

func wordsFor(n int) int { return (n + 63) >> 6 }

func (s ordSet) has(ord uint32) bool {
	if s.dense {
		return s.bits[ord>>6]>>(ord&63)&1 != 0
	}
	i := advance(s.list, 0, ord)
	return i < len(s.list) && s.list[i] == ord
}

func (s ordSet) count() int {
	if !s.dense {
		return len(s.list)
	}
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// countByClass adds to byClass how many members of s each placement
// class of g holds: a list is walked against the class column, a bitmap
// is intersected with each class's own, so neither costs more than the
// set took to compute.
func (s ordSet) countByClass(byClass []int, g *generation) {
	if !s.dense {
		for _, ord := range s.list {
			byClass[g.class[ord]]++
		}
		return
	}
	words := len(s.bits)
	for c := range byClass {
		of, n := g.classOrd[c*words:(c+1)*words], 0
		for i, w := range s.bits {
			n += bits.OnesCount64(w & of[i])
		}
		byClass[c] += n
	}
}

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

// gallopRatio is the size imbalance at which list intersection
// switches from linear scanning to exponential (galloping) search over
// the larger list.
const gallopRatio = 32

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

// and returns a ∩ b. A list operand keeps the result a list: against a
// bitmap it is one bit test per entry.
func (sc *scratch) and(a, b ordSet) ordSet {
	if a.dense && !b.dense {
		a, b = b, a
	}
	switch {
	case !b.dense: // list ∧ list
		out := ordSet{list: intersectInto(sc.get(), a.list, b.list), owned: true}
		sc.release(a)
		sc.release(b)
		return out
	case !a.dense: // list ∧ bitmap
		dst := a.list[:0]
		if !a.owned {
			dst = sc.get()
		}
		for _, ord := range a.list {
			if b.has(ord) {
				dst = append(dst, ord)
			}
		}
		sc.release(b)
		return ordSet{list: dst, owned: true}
	}
	if !a.owned {
		a, b = b, a
	}
	dst := a.bits
	if !a.owned {
		dst = sc.getWords(len(a.bits))
	}
	x, y := a.bits[:len(dst)], b.bits[:len(dst)]
	for i := range dst {
		dst[i] = x[i] & y[i]
	}
	sc.release(b)
	return ordSet{bits: dst, dense: true, owned: true}
}

// or returns a ∪ b. A bitmap operand makes the result a bitmap: a list
// against it sets one bit per entry in an owned copy.
func (sc *scratch) or(a, b ordSet) ordSet {
	if a.dense && !b.dense {
		a, b = b, a
	}
	switch {
	case !b.dense: // list ∨ list
		out := ordSet{list: unionInto(sc.get(), a.list, b.list), owned: true}
		sc.release(a)
		sc.release(b)
		return out
	case !a.dense: // list ∨ bitmap
		dst := b.bits
		if !b.owned {
			dst = sc.getWords(len(b.bits))
			copy(dst, b.bits)
		}
		for _, ord := range a.list {
			dst[ord>>6] |= 1 << (ord & 63)
		}
		sc.release(a)
		return ordSet{bits: dst, dense: true, owned: true}
	}
	if !a.owned {
		a, b = b, a
	}
	dst := a.bits
	if !a.owned {
		dst = sc.getWords(len(a.bits))
	}
	x, y := a.bits[:len(dst)], b.bits[:len(dst)]
	for i := range dst {
		dst[i] = x[i] | y[i]
	}
	sc.release(b)
	return ordSet{bits: dst, dense: true, owned: true}
}

// not returns the complement of a against [0, n), always as a bitmap
// whose bits past n stay zero.
func (sc *scratch) not(a ordSet, n int) ordSet {
	var dst []uint64
	if a.dense {
		dst = a.bits
		if !a.owned {
			dst = sc.getWords(len(a.bits))
		}
		for i, w := range a.bits[:len(dst)] {
			dst[i] = ^w
		}
	} else {
		dst = sc.getWords(wordsFor(n))
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		for _, ord := range a.list {
			dst[ord>>6] &^= 1 << (ord & 63)
		}
		sc.release(a)
	}
	if tail := uint(n) & 63; tail != 0 {
		dst[len(dst)-1] &= 1<<tail - 1
	}
	return ordSet{bits: dst, dense: true, owned: true}
}

// scratch is the pooled per-query workspace: free lists of ordinal and
// bitmap buffers for the set algebra, and delta-overlay state. A warm
// query allocates nothing but its final output.
type scratch struct {
	bufs  [][]uint32
	words [][]uint64
	seen  map[store.TraceID]struct{}
	ids   []string
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	// Drop string references so pooled scratch doesn't pin trace IDs.
	clear(sc.ids[:cap(sc.ids)])
	sc.ids = sc.ids[:0]
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

// getWords returns a bitmap buffer of exactly n words with arbitrary
// contents: every caller overwrites all of it. The scratch outlives
// generations, so a pooled buffer may be shorter than this one needs;
// such a buffer is dropped for a new one of the right size.
func (sc *scratch) getWords(n int) []uint64 {
	if k := len(sc.words); k > 0 {
		b := sc.words[k-1]
		sc.words = sc.words[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]uint64, n)
}

func (sc *scratch) release(s ordSet) {
	switch {
	case !s.owned:
	case s.dense:
		sc.words = append(sc.words, s.bits)
	default:
		sc.put(s.list)
	}
}

func (sc *scratch) seenMap() map[store.TraceID]struct{} {
	if sc.seen == nil {
		sc.seen = make(map[store.TraceID]struct{})
	}
	return sc.seen
}
