package index

import (
	"slices"
	"sort"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/jsontext"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The posting-list engine names categories by dense uint16 IDs and
// traces by dense uint32 ordinals. Category IDs are process-global:
// the closed canonical set from category.All() occupies [0,32) in a
// lock-free immutable map, and anything else (possible only through
// Add with a non-canonical category) is appended to a small locked
// registry. Trace ordinals are per-generation: a generation assigns
// ordinal i to the i-th trace ID in lexicographic order, so a sorted
// ordinal set materializes into a sorted ID list with no comparison
// work at query time.

// builtinCatID maps every canonical category to its dense ID without
// locking; query terms only ever expand over category.All(), so the
// entire query path stays lock-free.
var builtinCatID = func() map[category.Category]uint16 {
	all := category.All()
	m := make(map[category.Category]uint16, len(all))
	for i, c := range all {
		m[c] = uint16(i)
	}
	return m
}()

// catReg holds the ID→name table (canonical prefix plus any
// out-of-vocabulary categories registered by Add).
var catReg = struct {
	mu    sync.RWMutex
	names []category.Category
	ids   map[category.Category]uint16
}{}

func init() {
	all := category.All()
	catReg.names = append([]category.Category(nil), all...)
	catReg.ids = make(map[category.Category]uint16, len(all))
	for i, c := range all {
		catReg.ids[c] = uint16(i)
	}
}

// catIDOf returns the dense ID for a category, registering it on
// first sight.
func catIDOf(c category.Category) uint16 {
	if id, ok := builtinCatID[c]; ok {
		return id
	}
	catReg.mu.Lock()
	defer catReg.mu.Unlock()
	if id, ok := catReg.ids[c]; ok {
		return id
	}
	id := uint16(len(catReg.names))
	catReg.names = append(catReg.names, c)
	catReg.ids[c] = id
	return id
}

// maskOrder lists the closed set's category IDs — which are also their
// bit numbers in a category mask, both being positions in category.All()
// — in order of category name: walking it and testing bits yields a CSR
// row in the order Categories() promises with nothing left to sort.
var maskOrder = func() []uint16 {
	all := category.All()
	order := make([]uint16, len(all))
	for i := range order {
		order[i] = uint16(i)
	}
	sortCatIDs(order, all)
	return order
}()

// appendMaskCats appends the category IDs a result record's head stands
// for, in name order: the bits of a closed mask, or — the mask being
// open — the IDs of labels, the record's full list, registering what is
// new among them.
func appendMaskCats(dst []uint16, mask uint64, labels []string) []uint16 {
	if mask&category.MaskOpen == 0 {
		for _, cid := range maskOrder {
			if mask>>cid&1 != 0 {
				dst = append(dst, cid)
			}
		}
		return dst
	}
	from := len(dst)
	for _, l := range labels {
		dst = append(dst, catIDOf(category.Category(l)))
	}
	sortCatIDs(dst[from:], catNames())
	return append(dst[:from], slices.Compact(dst[from:])...)
}

// lookupCatID is catIDOf without the registering side effect.
func lookupCatID(c category.Category) (uint16, bool) {
	if id, ok := builtinCatID[c]; ok {
		return id, true
	}
	catReg.mu.RLock()
	defer catReg.mu.RUnlock()
	id, ok := catReg.ids[c]
	return id, ok
}

// catNames returns an immutable view of the ID→name table. The
// backing array is append-only and the view is length-capped, so the
// caller may read it without further locking.
func catNames() []category.Category {
	catReg.mu.RLock()
	defer catReg.mu.RUnlock()
	return catReg.names[:len(catReg.names):len(catReg.names)]
}

// generation is one immutable posting build: the trace-ID dictionary
// in lexicographic order, per-ordinal category sets in CSR layout, and
// per-category postings with their cardinalities. Nothing in a
// generation is ever mutated after buildGeneration returns.
type generation struct {
	ids      []store.TraceID // ordinal → ID, lexicographically sorted
	catOff   []uint32        // len(ids)+1 offsets into catIDs
	catIDs   []uint16        // concatenated per-ordinal category sets
	postings []ordSet        // catID → ordinals, each in its smaller form
	card     []int           // catID → how many ordinals carry it
	plain    bool            // every ID in ids satisfies jsontext.Plain
}

var emptyGen = &generation{catOff: []uint32{0}, plain: true}

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

func (g *generation) catsAt(ord uint32) []uint16 {
	return g.catIDs[g.catOff[ord]:g.catOff[ord+1]]
}

// posting returns the ordinal set for a category ID, tolerating IDs
// registered after this generation was built.
func (g *generation) posting(cid uint16) ordSet {
	if int(cid) < len(g.postings) {
		return g.postings[cid]
	}
	return ordSet{}
}

// entry is one (trace, category set) pair fed to a generation build.
type entry struct {
	id   store.TraceID
	cats []uint16
}

// buildGeneration constructs a generation from entries already sorted
// by ID and free of duplicates. A category carried by at least one
// trace in 32 gets a bitmap, any other a list (denseIsSmaller). The
// bitmaps share one allocation, the lists and the CSR offsets — the
// generation's other []uint32 — another. plain is the caller's word
// that every entry's ID satisfies jsontext.Plain.
func buildGeneration(entries []entry, ncats int, plain bool) *generation {
	n, total := len(entries), 0
	card := make([]int, ncats)
	for _, e := range entries {
		total += len(e.cats)
		for _, c := range e.cats {
			card[c]++
		}
	}
	words, ndense, sparse := wordsFor(n), 0, 0
	for _, k := range card {
		if denseIsSmaller(k, n) {
			ndense++
		} else {
			sparse += k
		}
	}
	bitmaps, lists := make([]uint64, ndense*words), make([]uint32, n+1+sparse)
	g := &generation{
		ids:      make([]store.TraceID, n),
		catOff:   lists[: n+1 : n+1],
		catIDs:   make([]uint16, 0, total),
		postings: make([]ordSet, ncats),
		card:     card,
		plain:    plain,
	}
	lists = lists[n+1:]
	for cid, k := range card {
		if denseIsSmaller(k, n) {
			g.postings[cid] = ordSet{bits: bitmaps[:words:words], dense: true}
			bitmaps = bitmaps[words:]
		} else {
			g.postings[cid] = ordSet{list: lists[:0:k]}
			lists = lists[k:]
		}
	}
	for ord, e := range entries {
		g.ids[ord] = e.id
		g.catOff[ord] = uint32(len(g.catIDs))
		g.catIDs = append(g.catIDs, e.cats...)
		for _, c := range e.cats {
			if p := &g.postings[c]; p.dense {
				p.bits[ord>>6] |= 1 << (uint(ord) & 63)
			} else {
				p.list = append(p.list, uint32(ord))
			}
		}
	}
	g.catOff[n] = uint32(len(g.catIDs))
	return g
}

// deltaOp is one batched mutation: a (re-)add with its category set,
// or a tombstone (cats == nil). An empty non-nil cats slice is a live
// trace with no categories — it matches NOT queries, as in the map
// engine.
type deltaOp struct {
	id   store.TraceID
	cats []uint16
}

// snapshot is the unit of epoch publication: an immutable generation
// plus a length-capped prefix of the append-only delta log. Queries
// grab one snapshot pointer and never look back; writers publish a
// new snapshot after every mutation.
type snapshot struct {
	gen  *generation
	ops  []deltaOp
	live int
	cats []category.Category // catID → name view covering every ID in gen/ops
}

// lookup resolves one trace against delta-then-generation,
// latest-wins.
func (s *snapshot) lookup(id store.TraceID) ([]uint16, bool) {
	for i := len(s.ops) - 1; i >= 0; i-- {
		if s.ops[i].id == id {
			if s.ops[i].cats == nil {
				return nil, false
			}
			return s.ops[i].cats, true
		}
	}
	if ord, ok := s.gen.ordinalOf(id); ok {
		return s.gen.catsAt(ord), true
	}
	return nil, false
}

// mergeGeneration folds a snapshot's delta into its generation,
// producing the next generation. Runs without any Index lock: every
// input is immutable.
func mergeGeneration(s *snapshot, ncats int) *generation {
	latest := make(map[store.TraceID]int, len(s.ops))
	for i, op := range s.ops {
		latest[op.id] = i
	}
	dops := make([]entry, 0, len(latest))
	for id, i := range latest {
		dops = append(dops, entry{id: id, cats: s.ops[i].cats})
	}
	sort.Slice(dops, func(i, j int) bool { return dops[i].id < dops[j].id })

	g := s.gen
	entries := make([]entry, 0, g.n()+len(dops))
	i, j := 0, 0
	for i < g.n() || j < len(dops) {
		switch {
		case j == len(dops) || (i < g.n() && g.ids[i] < dops[j].id):
			entries = append(entries, entry{id: g.ids[i], cats: g.catsAt(uint32(i))})
			i++
		case i == g.n() || dops[j].id < g.ids[i]:
			if dops[j].cats != nil {
				entries = append(entries, dops[j])
			}
			j++
		default: // same ID: the delta wins
			if dops[j].cats != nil {
				entries = append(entries, dops[j])
			}
			i++
			j++
		}
	}
	// IDs carried over from a vouched-for generation need no second
	// look; otherwise rescan everything, so the bit comes back once the
	// offending ID has been removed.
	unchecked := entries
	if g.plain {
		unchecked = dops
	}
	return buildGeneration(entries, ncats, allPlain(unchecked))
}

func allPlain(entries []entry) bool {
	for _, e := range entries {
		if !jsontext.Plain(string(e.id)) {
			return false
		}
	}
	return true
}

// sortCatIDs orders a small category-ID set by category name so CSR
// rows materialize in the order Categories() promises. Insertion sort:
// sets are at most a dozen wide.
func sortCatIDs(ids []uint16, names []category.Category) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && names[ids[j]] < names[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func containsCat(cats []uint16, cid uint16) bool {
	for _, c := range cats {
		if c == cid {
			return true
		}
	}
	return false
}
