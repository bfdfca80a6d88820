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
// dense lexicographically-ordered dictionary with each trace's
// category.Set in a column beside it, and each category's matches are a
// set of ordinals in the smaller of two forms — a []uint64 bitmap over
// [0,n) when at least one trace in 32 carries the category, a sorted
// []uint32 list otherwise. Boolean algebra runs over
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

	// Placement classes (Classify): written once before the index is
	// shared, read-only afterwards. classes == 0 means the index keeps no
	// class column and counts nothing by class.
	classOf func(store.TraceID) uint16
	classes int

	// compactMin overrides the delta-compaction threshold when > 0
	// (tests use tiny values to force fold churn).
	compactMin int
	compacting atomic.Bool
	compactWG  sync.WaitGroup

	statsCache atomic.Pointer[axisCache]
}

// New returns an empty index.
func New() *Index {
	ix := &Index{wmap: make(map[store.TraceID]int)}
	ix.snap.Store(&snapshot{gen: emptyGen})
	return ix
}

// Classify makes the index keep, beside each trace's category set, the
// number classOf gives its ID — a ring node passes the placement class
// of its routing table — and makes QueryPage count matches per class
// (Page.ByClass, classes entries long). classOf must be pure, safe for
// concurrent use and below classes for every ID. Call it once, on an
// empty index that no other goroutine has yet: the column is filled as
// entries arrive (Rebuild, Load, Add) and never back-filled.
func (ix *Index) Classify(classes int, classOf func(store.TraceID) uint16) {
	ix.classes, ix.classOf = classes, classOf
}

// Add (re-)indexes one trace under its category set. Re-adding a
// trace replaces its previous postings, so re-categorization under a
// new configuration keeps the index consistent. The taxonomy is closed:
// a set with category.Open is indexed under its other bits and keeps the
// bit in its column.
func (ix *Index) Add(id store.TraceID, cats category.Set) {
	ix.AddCtx(context.Background(), id, cats)
}

// AddCtx is Add wrapped in a request-trace span ("index.update") when
// ctx carries one; untraced contexts pay nothing beyond the nil check.
func (ix *Index) AddCtx(ctx context.Context, id store.TraceID, cats category.Set) {
	_, _, traced := reqtrace.FromContext(ctx)
	var start time.Time
	if traced {
		start = time.Now()
	}
	ix.mu.Lock()
	ix.applyLocked(deltaOp{id: id, set: cats, live: true})
	ix.mu.Unlock()
	if traced {
		reqtrace.AddSpan(ctx, "index.update", start, time.Since(start),
			reqtrace.Int("categories", int64(cats.Len())))
	}
}

// Remove drops a trace from every posting list.
func (ix *Index) Remove(id store.TraceID) {
	ix.mu.Lock()
	ix.applyLocked(deltaOp{id: id})
	ix.mu.Unlock()
}

// applyLocked appends one delta op and publishes the resulting
// snapshot. Caller holds ix.mu.
func (ix *Index) applyLocked(op deltaOp) {
	gen := ix.snap.Load().gen
	wasLive := false
	if i, ok := ix.wmap[op.id]; ok {
		wasLive = ix.ops[i].live
	} else if _, ok := gen.ordinalOf(op.id); ok {
		wasLive = true
	}
	if !op.live && !wasLive {
		return // removing an unknown trace: nothing to record
	}
	if op.live && ix.classOf != nil {
		op.class = ix.classOf(op.id)
	}
	ix.ops = append(ix.ops, op)
	ix.wmap[op.id] = len(ix.ops) - 1
	if op.live && !wasLive {
		ix.live++
	} else if !op.live {
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
	gen := mergeGeneration(s, ix.classes)
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

// Set returns the indexed category set of one trace, and whether the
// trace is indexed at all.
func (ix *Index) Set(id store.TraceID) (category.Set, bool) {
	return ix.snap.Load().lookup(id)
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
	bit, ok := c.Bit()
	if !ok {
		return 0
	}
	return ix.snap.Load().cards()[bit]
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
	out := map[string][]CategoryCount{
		category.AxisTemporality.String(): {},
		category.AxisPeriodicity.String(): {},
		category.AxisMetadata.String():    {},
	}
	all := category.All()
	for bit, cnt := range s.cards() {
		if cnt <= 0 {
			continue
		}
		axis := all[bit].Axis().String()
		out[axis] = append(out[axis], CategoryCount{Category: all[bit], Count: cnt})
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
// It streams the eight-byte category set at the head of each record out
// of the log — one sequential readahead pass that parses nothing — into
// flat buffers, so the cost per trace is a copy of its ID, not an
// allocation. It returns the number of traces indexed.
func (ix *Index) Rebuild(s *store.Store, fingerprint string) (int, error) {
	n := s.Stats().Results // of every fingerprint: an upper bound
	var (
		ids  strings.Builder              // trace IDs, back to back
		ends = make([]int, 0, n)          // where each one ends in ids
		sets = make([]category.Set, 0, n) // entry → set
	)
	ids.Grow(n * sha256.Size * 2)
	err := s.EachResultMask(fingerprint, func(id []byte, set category.Set) bool {
		ids.Write(id)
		ends = append(ends, ids.Len())
		sets = append(sets, set)
		return true
	})
	if err != nil {
		return 0, err
	}
	// Every entry's ID is a substring of one string.
	arena, entries := ids.String(), make([]entry, len(sets))
	start := 0
	for i, set := range sets {
		entries[i] = entry{id: store.TraceID(arena[start:ends[i]]), set: set}
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
		entries[i] = entry{id: it.ID, set: it.Cats}
	}
	return ix.install(entries)
}

// install sorts, dedups (latest wins), builds a generation, and
// publishes it wholesale with an empty delta. Every bulk entry comes
// through here, so this is where each gets its placement class.
func (ix *Index) install(entries []entry) int {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	dedup := entries[:0]
	for _, e := range entries {
		if n := len(dedup); n > 0 && dedup[n-1].id == e.id {
			dedup[n-1] = e // later entry for the same ID wins
			continue
		}
		dedup = append(dedup, e)
	}
	if ix.classOf != nil {
		for i := range dedup {
			dedup[i].class = ix.classOf(dedup[i].id)
		}
	}
	ix.mu.Lock()
	gen := buildGeneration(dedup, allPlain(dedup), ix.classes)
	ix.ops = nil
	ix.wmap = make(map[store.TraceID]int)
	ix.live = gen.n()
	ix.publishLocked(gen)
	ix.mu.Unlock()
	return gen.n()
}
