package index

import "sync"

// A compiled query plan. Plans bind term nodes to dense category IDs
// (static for the closed canonical set), flatten the left-associative
// parse tree into n-ary AND/OR nodes, and are immutable after compile —
// safe to cache globally and share across goroutines and Index
// instances.

const (
	pTerm = iota
	pAnd
	pOr
	pNot
)

type planNode struct {
	kind int
	cats []uint16    // pTerm
	kids []*planNode // pAnd, pOr; pNot uses kids[0]
}

func compile(n node) *planNode {
	switch t := n.(type) {
	case termNode:
		cats := make([]uint16, 0, len(t.cats))
		for _, c := range t.cats {
			if id, ok := lookupCatID(c); ok {
				cats = append(cats, id)
			}
		}
		return &planNode{kind: pTerm, cats: cats}
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
		if len(p.cats) == 0 {
			return ordSet{}
		}
		acc := g.posting(p.cats[0])
		for _, c := range p.cats[1:] {
			acc = sc.or(acc, g.posting(c))
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
func (p *planNode) matches(cats []uint16) bool {
	switch p.kind {
	case pTerm:
		for _, c := range p.cats {
			if containsCat(cats, c) {
				return true
			}
		}
		return false
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

// planCache memoizes compiled plans by query string. Category-ID
// binding only depends on the closed canonical set, so plans are
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
