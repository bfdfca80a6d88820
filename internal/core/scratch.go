package core

import (
	"slices"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/interval"
)

// scratch is the working memory of one categorization: the two directions'
// operation lists, merged in place, and the metadata rate table. Each
// categorization worker borrows one from scratchPool for the length of a
// trace, so the buffers grow to the largest recent trace's record (or DXT
// segment) count and stay there until the pool is collected; nothing is
// ever sized by a trace's runtime. Nothing in a scratch may be reachable
// from a returned Result or Explanation: whatever they keep is copied out.
type scratch struct {
	reads, writes []interval.Interval
	rates         rateTable
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// rateTable is the per-second request histogram of the metadata detector
// kept sparsely: one cell per second that saw a request, found through an
// open-addressed index. Its size follows the number of metadata events,
// not the runtime they are spread over. Between traces it is empty.
type rateTable struct {
	index []int32    // power-of-two length; 0 = free, else 1 + position in cells
	shift uint32     // 32 - log2(len(index)): the hash keeps the product's top bits
	cells []rateCell // occupied bins in first-touch order
}

type rateCell struct {
	bin  int32 // histogram bin (second of runtime, or coalesced seconds)
	slot int32 // the cell's position in index, to free it without a probe
	sum  float64
}

// reserve makes room for up to n distinct bins at a load factor of at
// most one half.
func (t *rateTable) reserve(n int) {
	if 2*n <= len(t.index) {
		return
	}
	size, shift := 16, uint32(28)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	t.index, t.shift = make([]int32, size), shift
}

// add accumulates v into bin, in call order — the order the dense
// histogram would add in, so each bin's float sum is the same.
func (t *rateTable) add(bin int32, v float64) {
	mask := uint32(len(t.index) - 1)
	for h := uint32(bin) * 2654435769 >> t.shift; ; h = (h + 1) & mask {
		at := t.index[h]
		if at == 0 {
			t.cells = append(t.cells, rateCell{bin: bin, slot: int32(h), sum: v})
			t.index[h] = int32(len(t.cells))
			return
		}
		if t.cells[at-1].bin == bin {
			t.cells[at-1].sum += v
			return
		}
	}
}

// sortByBin puts cells in bin order, for sums that depend on it.
func (t *rateTable) sortByBin() {
	slices.SortFunc(t.cells, func(a, b rateCell) int { return int(a.bin) - int(b.bin) })
}

// clear frees the occupied cells, touching nothing else of the index.
func (t *rateTable) clear() {
	for _, c := range t.cells {
		t.index[c.slot] = 0
	}
	t.cells = t.cells[:0]
}
