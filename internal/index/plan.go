package index

import (
	"math/bits"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/category"
)

// A compiled query plan. Plans bind term nodes to category sets (static:
// the taxonomy is closed), flatten the left-associative parse tree into
// n-ary AND/OR nodes, and are immutable after compile — safe to cache
// globally and share across goroutines and Index instances.

const (
	pTerm = iota
	pAnd
	pOr
	pNot
)

type planNode struct {
	kind int
	cats category.Set // pTerm: the categories the term expands to
	kids []*planNode  // pAnd, pOr; pNot uses kids[0]
}

func compile(n node) *planNode {
	switch t := n.(type) {
	case termNode:
		return &planNode{kind: pTerm, cats: category.NewSet(t.cats...)}
	case andNode:
		return flatten(pAnd, compile(t.l), compile(t.r))
	case orNode:
		return flatten(pOr, compile(t.l), compile(t.r))
	case notNode:
		return &planNode{kind: pNot, kids: []*planNode{compile(t.n)}}
	}
	return &planNode{kind: pTerm} // unreachable
}

// flatten splices same-kind children so "a AND b AND c" becomes one
// 3-ary AND instead of a left-leaning chain.
func flatten(kind int, l, r *planNode) *planNode {
	kids := make([]*planNode, 0, 4)
	for _, k := range [2]*planNode{l, r} {
		if k.kind == kind {
			kids = append(kids, k.kids...)
		} else {
			kids = append(kids, k)
		}
	}
	return &planNode{kind: kind, kids: kids}
}

// eval runs the plan against one immutable generation. Intermediates
// live in pooled scratch buffers; a bare term is the generation's own
// posting, borrowed.
func (p *planNode) eval(g *generation, sc *scratch) ordSet {
	switch p.kind {
	case pTerm:
		b := uint64(p.cats)
		if b == 0 {
			return ordSet{}
		}
		acc := g.postings[bits.TrailingZeros64(b)]
		for b &= b - 1; b != 0; b &= b - 1 {
			acc = sc.or(acc, g.postings[bits.TrailingZeros64(b)])
		}
		return acc
	case pNot:
		return sc.not(p.kids[0].eval(g, sc), g.n())
	case pAnd:
		acc := p.kids[0].eval(g, sc)
		for _, k := range p.kids[1:] {
			if !acc.dense && len(acc.list) == 0 {
				break // provably empty; skip remaining operands
			}
			acc = sc.and(acc, k.eval(g, sc))
		}
		return acc
	default: // pOr
		acc := p.kids[0].eval(g, sc)
		for _, k := range p.kids[1:] {
			acc = sc.or(acc, k.eval(g, sc))
		}
		return acc
	}
}

// matches evaluates the plan directly against one small category set
// — the delta-overlay path, where unfolded mutations are checked one
// trace at a time instead of through postings.
func (p *planNode) matches(cats category.Set) bool {
	switch p.kind {
	case pTerm:
		return cats&p.cats != 0
	case pNot:
		return !p.kids[0].matches(cats)
	case pAnd:
		for _, k := range p.kids {
			if !k.matches(cats) {
				return false
			}
		}
		return true
	default: // pOr
		for _, k := range p.kids {
			if k.matches(cats) {
				return true
			}
		}
		return false
	}
}

// planCache memoizes compiled plans by query string. A term's set
// only depends on the closed canonical set, so plans are
// valid process-wide; the cache flushes wholesale when adversarial
// unique-query traffic (fuzzing, scans) fills it.
var planCache = struct {
	sync.RWMutex
	m map[string]*planNode
}{m: make(map[string]*planNode)}

const planCacheMax = 4096

func compileQuery(q string) (*planNode, error) {
	planCache.RLock()
	p := planCache.m[q]
	planCache.RUnlock()
	if p != nil {
		return p, nil
	}
	root, err := parseQuery(q)
	if err != nil {
		return nil, err
	}
	p = compile(root)
	planCache.Lock()
	if len(planCache.m) >= planCacheMax {
		clear(planCache.m)
	}
	planCache.m[q] = p
	planCache.Unlock()
	return p, nil
}
