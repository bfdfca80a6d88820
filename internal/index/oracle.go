package index

import (
	"sort"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Oracle is the original hash-map inverted index, retained verbatim
// in spirit as the differential-testing reference for the posting-list
// engine: same grammar, same semantics, independent evaluation
// strategy. One fix over its production ancestor: NOT is evaluated
// lazily as a complemented set, so queries without (or with nested)
// negation never materialize the full-universe map — the property
// that lets the differential corpus reach millions of traces without
// the oracle itself becoming the memory bottleneck.
type Oracle struct {
	mu      sync.RWMutex
	byCat   map[category.Category]map[store.TraceID]struct{}
	byTrace map[store.TraceID][]category.Category
}

// NewOracle returns an empty reference index.
func NewOracle() *Oracle {
	return &Oracle{
		byCat:   make(map[category.Category]map[store.TraceID]struct{}),
		byTrace: make(map[store.TraceID][]category.Category),
	}
}

// Add (re-)indexes one trace under its category set, replacing any
// previous postings.
func (o *Oracle) Add(id store.TraceID, cats category.Set) {
	sorted := cats.Sorted()
	o.mu.Lock()
	defer o.mu.Unlock()
	if old, ok := o.byTrace[id]; ok {
		o.removeLocked(id, old)
	}
	o.byTrace[id] = sorted
	for _, c := range sorted {
		posting, ok := o.byCat[c]
		if !ok {
			posting = make(map[store.TraceID]struct{})
			o.byCat[c] = posting
		}
		posting[id] = struct{}{}
	}
}

// Remove drops a trace from every posting list.
func (o *Oracle) Remove(id store.TraceID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if old, ok := o.byTrace[id]; ok {
		o.removeLocked(id, old)
		delete(o.byTrace, id)
	}
}

func (o *Oracle) removeLocked(id store.TraceID, cats []category.Category) {
	for _, c := range cats {
		if posting, ok := o.byCat[c]; ok {
			delete(posting, id)
			if len(posting) == 0 {
				delete(o.byCat, c)
			}
		}
	}
}

// Categories returns the indexed category set of one trace (nil when
// unknown).
func (o *Oracle) Categories(id store.TraceID) []category.Category {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return append([]category.Category(nil), o.byTrace[id]...)
}

// Len returns the number of indexed traces.
func (o *Oracle) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.byTrace)
}

// Count returns how many traces carry the exact category.
func (o *Oracle) Count(c category.Category) int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.byCat[c])
}

// AxisCounts returns the per-axis distribution of indexed categories,
// each axis sorted by decreasing count then name.
func (o *Oracle) AxisCounts() map[string][]CategoryCount {
	o.mu.RLock()
	out := map[string][]CategoryCount{
		category.AxisTemporality.String(): {},
		category.AxisPeriodicity.String(): {},
		category.AxisMetadata.String():    {},
	}
	for c, posting := range o.byCat {
		axis := c.Axis().String()
		out[axis] = append(out[axis], CategoryCount{Category: c, Count: len(posting)})
	}
	o.mu.RUnlock()
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

// Rebuild repopulates the oracle from every stored result under the
// given config fingerprint — the original random-read, full-decode
// path, kept as the baseline Rebuild measures against.
func (o *Oracle) Rebuild(s *store.Store, fingerprint string) (int, error) {
	byCat := make(map[category.Category]map[store.TraceID]struct{})
	byTrace := make(map[store.TraceID][]category.Category)
	err := s.EachResult(fingerprint, func(id store.TraceID, res *core.Result) bool {
		sorted := res.Categories.Sorted()
		byTrace[id] = sorted
		for _, c := range sorted {
			posting, ok := byCat[c]
			if !ok {
				posting = make(map[store.TraceID]struct{})
				byCat[c] = posting
			}
			posting[id] = struct{}{}
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	o.byCat = byCat
	o.byTrace = byTrace
	n := len(byTrace)
	o.mu.Unlock()
	return n, nil
}

// oset is a hash-map set with lazy complement: when neg is set the
// value is "every indexed trace except m".
type oset struct {
	m   map[store.TraceID]struct{}
	neg bool
}

func (o *Oracle) evalNode(n node) oset {
	switch t := n.(type) {
	case termNode:
		out := make(map[store.TraceID]struct{})
		o.mu.RLock()
		for _, c := range t.cats {
			for id := range o.byCat[c] {
				out[id] = struct{}{}
			}
		}
		o.mu.RUnlock()
		return oset{m: out}
	case notNode:
		s := o.evalNode(t.n)
		s.neg = !s.neg
		return s
	case andNode:
		return osetAnd(o.evalNode(t.l), o.evalNode(t.r))
	case orNode:
		return osetOr(o.evalNode(t.l), o.evalNode(t.r))
	}
	return oset{m: map[store.TraceID]struct{}{}}
}

func osetAnd(a, b oset) oset {
	switch {
	case !a.neg && !b.neg:
		if len(b.m) < len(a.m) {
			a, b = b, a
		}
		out := make(map[store.TraceID]struct{}, len(a.m))
		for id := range a.m {
			if _, ok := b.m[id]; ok {
				out[id] = struct{}{}
			}
		}
		return oset{m: out}
	case !a.neg && b.neg:
		return oset{m: mapSubtract(a.m, b.m)}
	case a.neg && !b.neg:
		return oset{m: mapSubtract(b.m, a.m)}
	default: // ¬a ∧ ¬b = ¬(a ∪ b)
		return oset{m: mapUnion(a.m, b.m), neg: true}
	}
}

func osetOr(a, b oset) oset {
	switch {
	case !a.neg && !b.neg:
		return oset{m: mapUnion(a.m, b.m)}
	case !a.neg && b.neg: // a ∨ ¬b = ¬(b \ a)
		return oset{m: mapSubtract(b.m, a.m), neg: true}
	case a.neg && !b.neg:
		return oset{m: mapSubtract(a.m, b.m), neg: true}
	default: // ¬a ∨ ¬b = ¬(a ∩ b)
		if len(b.m) < len(a.m) {
			a, b = b, a
		}
		out := make(map[store.TraceID]struct{}, len(a.m))
		for id := range a.m {
			if _, ok := b.m[id]; ok {
				out[id] = struct{}{}
			}
		}
		return oset{m: out, neg: true}
	}
}

func mapUnion(a, b map[store.TraceID]struct{}) map[store.TraceID]struct{} {
	out := make(map[store.TraceID]struct{}, len(a)+len(b))
	for id := range a {
		out[id] = struct{}{}
	}
	for id := range b {
		out[id] = struct{}{}
	}
	return out
}

func mapSubtract(a, b map[store.TraceID]struct{}) map[store.TraceID]struct{} {
	out := make(map[store.TraceID]struct{}, len(a))
	for id := range a {
		if _, ok := b[id]; !ok {
			out[id] = struct{}{}
		}
	}
	return out
}

// Query evaluates a boolean category expression, returning matching
// trace IDs in lexicographic order. The universe map only
// materializes when a complement survives to the top of the
// expression.
func (o *Oracle) Query(q string) ([]store.TraceID, error) {
	root, err := parseQuery(q)
	if err != nil {
		return nil, err
	}
	s := o.evalNode(root)
	var out []store.TraceID
	if s.neg {
		o.mu.RLock()
		out = make([]store.TraceID, 0, len(o.byTrace))
		for id := range o.byTrace {
			if _, ok := s.m[id]; !ok {
				out = append(out, id)
			}
		}
		o.mu.RUnlock()
	} else {
		out = make([]store.TraceID, 0, len(s.m))
		for id := range s.m {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
