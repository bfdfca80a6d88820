package index

import (
	"math/bits"
	"sort"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/jsontext"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The posting-list engine names a category by its bit number in a
// category.Set and a trace by a dense uint32 ordinal. The taxonomy is
// closed, so the bit numbers are static: a set's category.Open bit (and
// any bit this build assigns no category) gets no posting and can be the
// subject of no query term — it stays in the trace's set and nowhere
// else. Trace ordinals are per-generation: a generation assigns ordinal
// i to the i-th trace ID in lexicographic order, so a sorted ordinal set
// materializes into a sorted ID list with no comparison work at query
// time.

// generation is one immutable posting build: the trace-ID dictionary
// in lexicographic order, the category set of each ordinal in a column
// beside it, and per-category postings with their cardinalities. Nothing
// in a generation is ever mutated after buildGeneration returns.
type generation struct {
	ids      []store.TraceID    // ordinal → ID, lexicographically sorted
	sets     []category.Set     // ordinal → category set
	class    []uint16           // ordinal → placement class; nil unless the index classifies
	classOrd []uint64           // the same column turned: one bitmap over [0,n) per class, back to back
	postings [category.N]ordSet // bit → ordinals, each in its smaller form
	card     [category.N]int    // bit → how many ordinals carry it
	plain    bool               // every ID in ids satisfies jsontext.Plain
}

var emptyGen = &generation{plain: true}

func (g *generation) n() int { return len(g.ids) }

// lowerBound binary-searches the dictionary for the first ordinal
// whose ID is not below id (n() when there is none).
func (g *generation) lowerBound(id store.TraceID) uint32 {
	lo, hi := 0, len(g.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

func (g *generation) ordinalOf(id store.TraceID) (uint32, bool) {
	lo := g.lowerBound(id)
	if int(lo) < len(g.ids) && g.ids[lo] == id {
		return lo, true
	}
	return 0, false
}

// entry is one (trace, category set) pair fed to a generation build,
// with the trace's placement class where the index keeps one.
type entry struct {
	id    store.TraceID
	set   category.Set
	class uint16
}

// buildGeneration constructs a generation from entries already sorted
// by ID and free of duplicates. A category carried by at least one
// trace in 32 gets a bitmap, any other a list (denseIsSmaller). The
// bitmaps share one allocation, the lists another. plain is the caller's
// word that every entry's ID satisfies jsontext.Plain. With classes > 0
// the entries' placement classes, each below it, are kept in both forms
// countByClass reads.
func buildGeneration(entries []entry, plain bool, classes int) *generation {
	n := len(entries)
	g := &generation{
		ids:   make([]store.TraceID, n),
		sets:  make([]category.Set, n),
		plain: plain,
	}
	if classes > 0 {
		words := wordsFor(n)
		g.class, g.classOrd = make([]uint16, n), make([]uint64, classes*words)
		for ord, e := range entries {
			g.class[ord] = e.class
			g.classOrd[int(e.class)*words+ord>>6] |= 1 << (uint(ord) & 63)
		}
	}
	for ord, e := range entries {
		g.ids[ord], g.sets[ord] = e.id, e.set
		for b := uint64(e.set & category.Closed); b != 0; b &= b - 1 {
			g.card[bits.TrailingZeros64(b)]++
		}
	}
	words, ndense, sparse := wordsFor(n), 0, 0
	for _, k := range g.card {
		if denseIsSmaller(k, n) {
			ndense++
		} else {
			sparse += k
		}
	}
	bitmaps, lists := make([]uint64, ndense*words), make([]uint32, sparse)
	for bit, k := range g.card {
		if denseIsSmaller(k, n) {
			g.postings[bit] = ordSet{bits: bitmaps[:words:words], dense: true}
			bitmaps = bitmaps[words:]
		} else {
			g.postings[bit] = ordSet{list: lists[:0:k]}
			lists = lists[k:]
		}
	}
	for ord, set := range g.sets {
		for b := uint64(set & category.Closed); b != 0; b &= b - 1 {
			if p := &g.postings[bits.TrailingZeros64(b)]; p.dense {
				p.bits[ord>>6] |= 1 << (uint(ord) & 63)
			} else {
				p.list = append(p.list, uint32(ord))
			}
		}
	}
	return g
}

// deltaOp is one batched mutation: a (re-)add with its category set,
// or a tombstone (live false). A live op with the empty set is a trace
// with no categories — it matches NOT queries, as in the map engine.
type deltaOp struct {
	id    store.TraceID
	set   category.Set
	class uint16 // of a live op, where the index classifies
	live  bool
}

// snapshot is the unit of epoch publication: an immutable generation
// plus a length-capped prefix of the append-only delta log. Queries
// grab one snapshot pointer and never look back; writers publish a
// new snapshot after every mutation.
type snapshot struct {
	gen  *generation
	ops  []deltaOp
	live int
}

// lookup resolves one trace against delta-then-generation,
// latest-wins.
func (s *snapshot) lookup(id store.TraceID) (category.Set, bool) {
	for i := len(s.ops) - 1; i >= 0; i-- {
		if op := s.ops[i]; op.id == id {
			return op.set, op.live
		}
	}
	if ord, ok := s.gen.ordinalOf(id); ok {
		return s.gen.sets[ord], true
	}
	return 0, false
}

// cards counts the live traces carrying each category: the generation's
// cardinalities, less the bits of every set the delta overrides, plus
// the bits of the set that overrides it (latest op per ID).
func (s *snapshot) cards() [category.N]int {
	counts := s.gen.card
	adjust := func(set category.Set, by int) {
		for b := uint64(set & category.Closed); b != 0; b &= b - 1 {
			counts[bits.TrailingZeros64(b)] += by
		}
	}
	seen := make(map[store.TraceID]struct{}, len(s.ops))
	for i := len(s.ops) - 1; i >= 0; i-- {
		op := s.ops[i]
		if _, dup := seen[op.id]; dup {
			continue
		}
		seen[op.id] = struct{}{}
		if ord, ok := s.gen.ordinalOf(op.id); ok {
			adjust(s.gen.sets[ord], -1)
		}
		if op.live {
			adjust(op.set, +1)
		}
	}
	return counts
}

// mergeGeneration folds a snapshot's delta into its generation,
// producing the next generation. Runs without any Index lock: every
// input is immutable.
func mergeGeneration(s *snapshot, classes int) *generation {
	latest := make(map[store.TraceID]int, len(s.ops))
	for i, op := range s.ops {
		latest[op.id] = i
	}
	dops, deltaPlain := make([]deltaOp, 0, len(latest)), true
	for _, i := range latest {
		dops = append(dops, s.ops[i])
		deltaPlain = deltaPlain && jsontext.Plain(string(s.ops[i].id))
	}
	sort.Slice(dops, func(i, j int) bool { return dops[i].id < dops[j].id })

	g := s.gen
	entries := make([]entry, 0, g.n()+len(dops))
	i, j := 0, 0
	for i < g.n() || j < len(dops) {
		switch {
		case j == len(dops) || (i < g.n() && g.ids[i] < dops[j].id):
			e := entry{id: g.ids[i], set: g.sets[i]}
			if classes > 0 {
				e.class = g.class[i]
			}
			entries = append(entries, e)
			i++
		default: // an ID the generation lacks, or the same ID: the delta wins
			if i < g.n() && g.ids[i] == dops[j].id {
				i++
			}
			if dops[j].live {
				entries = append(entries, entry{id: dops[j].id, set: dops[j].set, class: dops[j].class})
			}
			j++
		}
	}
	// IDs carried over from a vouched-for generation need no second
	// look; otherwise rescan everything, so the bit comes back once the
	// offending ID has been removed.
	return buildGeneration(entries, g.plain && deltaPlain || allPlain(entries), classes)
}

func allPlain(entries []entry) bool {
	for _, e := range entries {
		if !jsontext.Plain(string(e.id)) {
			return false
		}
	}
	return true
}
