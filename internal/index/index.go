// Package index maintains an inverted category index over stored
// categorization results: category → set of trace IDs, plus per-axis
// label counts. It answers boolean queries such as
//
//	periodic_minute AND write_on_end NOT insignificant_load
//
// where each bare term expands to the union of all canonical
// categories containing it (so "periodic_minute" matches both
// read_periodic_minute and write_periodic_minute). The index is
// rebuilt from the result store on startup and updated incrementally
// on ingest; all operations are safe for concurrent use.
//
// Internally this is a compact posting engine: trace IDs live in a
// dense lexicographically-ordered dictionary, and each category's
// matches are a set of ordinals in the smaller of two forms — a
// []uint64 bitmap over [0,n) when at least one trace in 32 carries the
// category, a sorted []uint32 list otherwise. Boolean algebra runs over
// those sets in pooled scratch buffers: word-parallel AND/OR/NOT between
// bitmaps, a bit test or bit set per entry where a list meets one,
// galloping intersection between lists; a count is a length or a
// popcount, and a page is the first entries or set bits.
// Readers and writers never block each other: every mutation
// publishes a new immutable snapshot (generation + append-only delta
// log) through one atomic pointer, and a background pass compacts the
// delta into the next generation when it grows past a threshold. The
// map-based predecessor survives as Oracle, the differential-testing
// reference.
package index

import (
	"context"
	"crypto/sha256"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/reqtrace"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Index is a concurrent inverted index from category to trace IDs.
// Queries are wait-free with respect to writers: they load one
// snapshot pointer and run entirely against immutable data.
type Index struct {
	snap atomic.Pointer[snapshot]

	mu   sync.Mutex // serializes writers (Add/Remove/Rebuild/Load) and compaction hand-off
	ops  []deltaOp  // append-only since the last compaction; entries are write-once
	wmap map[store.TraceID]int
	live int
	cats []category.Category

	// compactMin overrides the delta-compaction threshold when > 0
	// (tests use tiny values to force fold churn).
	compactMin int
	compacting atomic.Bool
	compactWG  sync.WaitGroup

	statsCache atomic.Pointer[axisCache]
}

// New returns an empty index.
func New() *Index {
	ix := &Index{wmap: make(map[store.TraceID]int), cats: catNames()}
	ix.snap.Store(&snapshot{gen: emptyGen, cats: ix.cats})
	return ix
}

// Add (re-)indexes one trace under its category set. Re-adding a
// trace replaces its previous postings, so re-categorization under a
// new configuration keeps the index consistent.
func (ix *Index) Add(id store.TraceID, cats category.Set) {
	ix.addCtx(context.Background(), id, setCatIDs(cats))
}

// AddCtx is Add wrapped in a request-trace span ("index.update") when
// ctx carries one; untraced contexts pay nothing beyond the nil check.
func (ix *Index) AddCtx(ctx context.Context, id store.TraceID, cats category.Set) {
	ix.addCtx(ctx, id, setCatIDs(cats))
}

// AddMaskCtx is AddCtx for a caller that holds the head of the trace's
// result record instead of a decoded result: the categories are mask's
// bits, and labels — the record's full list — is read only when mask
// has category.MaskOpen (the convention of store.EachResultMask).
func (ix *Index) AddMaskCtx(ctx context.Context, id store.TraceID, mask uint64, labels []string) {
	ix.addCtx(ctx, id, appendMaskCats(make([]uint16, 0, bits.OnesCount64(mask)), mask, labels))
}

// setCatIDs names a category set by dense IDs; never nil, since a nil
// op is a tombstone and a set without members is a live trace.
func setCatIDs(cats category.Set) []uint16 {
	sorted := cats.Sorted()
	cids := make([]uint16, len(sorted))
	for i, c := range sorted {
		cids[i] = catIDOf(c)
	}
	return cids
}

func (ix *Index) addCtx(ctx context.Context, id store.TraceID, cids []uint16) {
	_, _, traced := reqtrace.FromContext(ctx)
	var start time.Time
	if traced {
		start = time.Now()
	}
	ix.mu.Lock()
	ix.applyLocked(id, cids)
	ix.mu.Unlock()
	if traced {
		reqtrace.AddSpan(ctx, "index.update", start, time.Since(start),
			reqtrace.Int("categories", int64(len(cids))))
	}
}

// Remove drops a trace from every posting list.
func (ix *Index) Remove(id store.TraceID) {
	ix.mu.Lock()
	ix.applyLocked(id, nil)
	ix.mu.Unlock()
}

// applyLocked appends one delta op (cids == nil tombstones) and
// publishes the resulting snapshot. Caller holds ix.mu.
func (ix *Index) applyLocked(id store.TraceID, cids []uint16) {
	gen := ix.snap.Load().gen
	wasLive := false
	if i, ok := ix.wmap[id]; ok {
		wasLive = ix.ops[i].cats != nil
	} else if _, ok := gen.ordinalOf(id); ok {
		wasLive = true
	}
	if cids == nil && !wasLive {
		return // removing an unknown trace: nothing to record
	}
	for _, c := range cids {
		if int(c) >= len(ix.cats) {
			ix.cats = catNames()
			break
		}
	}
	ix.ops = append(ix.ops, deltaOp{id: id, cats: cids})
	ix.wmap[id] = len(ix.ops) - 1
	if cids != nil && !wasLive {
		ix.live++
	} else if cids == nil && wasLive {
		ix.live--
	}
	ix.publishLocked(gen)
	ix.maybeCompactLocked(gen)
}

// publishLocked stores a fresh snapshot. The ops slice is length- and
// capacity-capped: later appends by the writer can never become
// visible through an already-published snapshot.
func (ix *Index) publishLocked(gen *generation) {
	ix.snap.Store(&snapshot{
		gen:  gen,
		ops:  ix.ops[:len(ix.ops):len(ix.ops)],
		live: ix.live,
		cats: ix.cats,
	})
}

// compactThreshold is the delta length that triggers a background
// fold into the next generation.
func (ix *Index) compactThreshold(gen *generation) int {
	if ix.compactMin > 0 {
		return ix.compactMin
	}
	if t := gen.n() / 64; t > 1024 {
		return t
	}
	return 1024
}

func (ix *Index) maybeCompactLocked(gen *generation) {
	if len(ix.ops) >= ix.compactThreshold(gen) && ix.compacting.CompareAndSwap(false, true) {
		ix.compactWG.Add(1)
		go ix.compactLoop()
	}
}

func (ix *Index) compactLoop() {
	defer ix.compactWG.Done()
	for {
		ix.compactOnce()
		ix.compacting.Store(false)
		// A writer that crossed the threshold while the flag was held
		// skipped spawning; re-check so the delta can't grow unbounded.
		ix.mu.Lock()
		again := len(ix.ops) >= ix.compactThreshold(ix.snap.Load().gen) &&
			ix.compacting.CompareAndSwap(false, true)
		ix.mu.Unlock()
		if !again {
			return
		}
	}
}

// compactOnce folds the published delta prefix into a new generation
// off-lock, then swaps it in and carries over ops that arrived during
// the fold.
func (ix *Index) compactOnce() {
	s := ix.snap.Load()
	if len(s.ops) == 0 {
		return
	}
	gen := mergeGeneration(s, len(s.cats))
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.snap.Load().gen != s.gen {
		return // Rebuild/Load replaced the base mid-fold; discard ours
	}
	tail := ix.ops[len(s.ops):]
	carried := make([]deltaOp, len(tail), len(tail)+64)
	copy(carried, tail)
	ix.ops = carried
	wmap := make(map[store.TraceID]int, len(carried))
	for i, op := range carried {
		wmap[op.id] = i
	}
	ix.wmap = wmap
	ix.publishLocked(gen)
}

// waitCompact blocks until any in-flight compaction finishes (test
// hook).
func (ix *Index) waitCompact() { ix.compactWG.Wait() }

// Categories returns the indexed category set of one trace (nil when
// unknown).
func (ix *Index) Categories(id store.TraceID) []category.Category {
	s := ix.snap.Load()
	cids, ok := s.lookup(id)
	if !ok || len(cids) == 0 {
		return nil
	}
	out := make([]category.Category, len(cids))
	for i, c := range cids {
		out[i] = s.cats[c]
	}
	return out
}

// Len returns the number of indexed traces.
func (ix *Index) Len() int { return ix.snap.Load().live }

// Stats is a point-in-time view of the index's shape.
type Stats struct {
	GenerationTraces int   // traces in the current generation
	DeltaOps         int   // unfolded mutations layered over it
	PostingBytes     int64 // the generation's postings, both forms
	BitmapPostings   int   // how many of them the size rule made bitmaps
}

// Stats reports the shape of the current snapshot.
func (ix *Index) Stats() Stats {
	s := ix.snap.Load()
	st := Stats{GenerationTraces: s.gen.n(), DeltaOps: len(s.ops)}
	for _, p := range s.gen.postings {
		st.PostingBytes += int64(4*len(p.list) + 8*len(p.bits))
		if len(p.bits) > 0 {
			st.BitmapPostings++
		}
	}
	return st
}

// Count returns how many traces carry the exact category.
func (ix *Index) Count(c category.Category) int {
	cid, ok := lookupCatID(c)
	if !ok {
		return 0
	}
	s := ix.snap.Load()
	n := 0
	if int(cid) < len(s.gen.card) {
		n = s.gen.card[cid]
	}
	if len(s.ops) == 0 {
		return n
	}
	seen := make(map[store.TraceID]struct{}, len(s.ops))
	for i := len(s.ops) - 1; i >= 0; i-- {
		op := s.ops[i]
		if _, dup := seen[op.id]; dup {
			continue
		}
		seen[op.id] = struct{}{}
		had := false
		if ord, ok := s.gen.ordinalOf(op.id); ok {
			had = containsCat(s.gen.catsAt(ord), cid)
		}
		has := op.cats != nil && containsCat(op.cats, cid)
		if has && !had {
			n++
		} else if had && !has {
			n--
		}
	}
	return n
}

// CategoryCount pairs a category with its posting size.
type CategoryCount struct {
	Category category.Category `json:"category"`
	Count    int               `json:"count"`
}

// axisCache memoizes AxisCounts per snapshot: the pointer identity of
// the snapshot doubles as the invalidation key, so any mutation,
// compaction, or rebuild naturally expires it.
type axisCache struct {
	snap *snapshot
	axes map[string][]CategoryCount
}

// AxisCounts returns the per-axis distribution of indexed categories,
// each axis sorted by decreasing count then name. This is the /v1/stats
// view of the corpus: Table I aggregated live. Computed once per
// snapshot and served from cache until the next mutation.
func (ix *Index) AxisCounts() map[string][]CategoryCount {
	s := ix.snap.Load()
	if c := ix.statsCache.Load(); c != nil && c.snap == s {
		return copyAxes(c.axes)
	}
	axes := computeAxes(s)
	ix.statsCache.Store(&axisCache{snap: s, axes: axes})
	return copyAxes(axes)
}

// copyAxes shallow-copies the outer map so callers cannot perturb the
// cache; the CategoryCount slices are shared and must be treated as
// read-only, which every call site (JSON serialization) honors.
func copyAxes(axes map[string][]CategoryCount) map[string][]CategoryCount {
	out := make(map[string][]CategoryCount, len(axes))
	for k, v := range axes {
		out[k] = v
	}
	return out
}

func computeAxes(s *snapshot) map[string][]CategoryCount {
	counts := make([]int, len(s.cats))
	copy(counts, s.gen.card)
	if len(s.ops) > 0 {
		seen := make(map[store.TraceID]struct{}, len(s.ops))
		for i := len(s.ops) - 1; i >= 0; i-- {
			op := s.ops[i]
			if _, dup := seen[op.id]; dup {
				continue
			}
			seen[op.id] = struct{}{}
			if ord, ok := s.gen.ordinalOf(op.id); ok {
				for _, c := range s.gen.catsAt(ord) {
					counts[c]--
				}
			}
			for _, c := range op.cats {
				counts[c]++
			}
		}
	}
	out := map[string][]CategoryCount{
		category.AxisTemporality.String(): {},
		category.AxisPeriodicity.String(): {},
		category.AxisMetadata.String():    {},
	}
	for cid, cnt := range counts {
		if cnt <= 0 {
			continue
		}
		c := s.cats[cid]
		axis := c.Axis().String()
		out[axis] = append(out[axis], CategoryCount{Category: c, Count: cnt})
	}
	for _, counts := range out {
		sort.Slice(counts, func(i, j int) bool {
			if counts[i].Count != counts[j].Count {
				return counts[i].Count > counts[j].Count
			}
			return counts[i].Category < counts[j].Category
		})
	}
	return out
}

// Rebuild repopulates the index from every stored result under the
// given config fingerprint, replacing current contents atomically
// (queries running during a rebuild see the old state until the swap).
// It streams the eight-byte category mask at the head of each record out
// of the log — one sequential readahead pass that parses nothing — into
// three flat buffers, so the cost per trace is a copy of its ID, not an
// allocation. It returns the number of traces indexed.
func (ix *Index) Rebuild(s *store.Store, fingerprint string) (int, error) {
	n := s.Stats().Results // of every fingerprint: an upper bound
	var (
		ids   strings.Builder        // trace IDs, back to back
		ends  = make([]int, 0, n)    // where each one ends in ids
		masks = make([]uint64, 0, n) // entry → mask
		open  map[int][]string       // entry → labels, for the masks with MaskOpen
		ncats int
	)
	ids.Grow(n * sha256.Size * 2)
	err := s.EachResultMask(fingerprint, func(id []byte, mask uint64, labels []string) bool {
		if mask&category.MaskOpen != 0 {
			if open == nil {
				open = make(map[int][]string)
			}
			open[len(masks)] = labels
			ncats += len(labels)
		} else {
			ncats += bits.OnesCount64(mask)
		}
		ids.Write(id)
		ends = append(ends, ids.Len())
		masks = append(masks, mask)
		return true
	})
	if err != nil {
		return 0, err
	}
	// Every entry's ID is a substring of one string and its categories a
	// window of one slice.
	arena, cats, entries := ids.String(), make([]uint16, 0, ncats), make([]entry, len(masks))
	start := 0
	for i, mask := range masks {
		from := len(cats)
		cats = appendMaskCats(cats, mask, open[i])
		entries[i] = entry{id: store.TraceID(arena[start:ends[i]]), cats: cats[from:len(cats):len(cats)]}
		start = ends[i]
	}
	return ix.install(entries), nil
}

// Entry is one trace for bulk loading.
type Entry struct {
	ID   store.TraceID
	Cats category.Set
}

// Load bulk-replaces the index contents in one generation build —
// the path for restoring from a snapshot or building large synthetic
// corpora without paying one epoch publication per trace. Later
// entries win on duplicate IDs. It returns the number of traces
// indexed.
func (ix *Index) Load(items []Entry) int {
	entries := make([]entry, len(items))
	for i, it := range items {
		sorted := it.Cats.Sorted()
		cids := make([]uint16, len(sorted))
		for j, c := range sorted {
			cids[j] = catIDOf(c)
		}
		entries[i] = entry{id: it.ID, cats: cids}
	}
	return ix.install(entries)
}

// install sorts, dedups (latest wins), builds a generation, and
// publishes it wholesale with an empty delta.
func (ix *Index) install(entries []entry) int {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	names := catNames()
	dedup := entries[:0]
	for _, e := range entries {
		sortCatIDs(e.cats, names)
		if n := len(dedup); n > 0 && dedup[n-1].id == e.id {
			dedup[n-1] = e // later entry for the same ID wins
			continue
		}
		dedup = append(dedup, e)
	}
	ix.mu.Lock()
	ix.cats = catNames()
	gen := buildGeneration(dedup, len(ix.cats), allPlain(dedup))
	ix.ops = nil
	ix.wmap = make(map[store.TraceID]int)
	ix.live = gen.n()
	ix.publishLocked(gen)
	ix.mu.Unlock()
	return gen.n()
}
