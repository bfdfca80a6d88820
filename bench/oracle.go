package main

import (
	"sort"
	"strings"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// The query oracle: a boolean expression evaluated label set by label
// set, with none of the index's machinery (no posting lists, no
// ordinals, no planner). It shares only the term rule with the index,
// restated here from its documentation: a term names one category
// exactly, or else every category whose name contains it.

// expr is a query the benchmark sends and can evaluate itself.
type expr interface {
	String() string // the query text sent to the server
	match(labels map[string]bool) bool
}

type termExpr struct {
	text string
	cats []string // the categories the term stands for
}

func term(text string) termExpr {
	t := termExpr{text: text}
	for _, c := range category.All() {
		if string(c) == text {
			t.cats = []string{text}
			return t
		}
	}
	for _, c := range category.All() {
		if strings.Contains(string(c), text) {
			t.cats = append(t.cats, string(c))
		}
	}
	return t
}

func (t termExpr) String() string { return t.text }
func (t termExpr) match(labels map[string]bool) bool {
	for _, c := range t.cats {
		if labels[c] {
			return true
		}
	}
	return false
}

type andExpr struct{ l, r expr }
type orExpr struct{ l, r expr }
type notExpr struct{ e expr }

// The text is the plain infix form, parenthesised only where the
// grammar's precedence (NOT over AND over OR) requires it.
func (e andExpr) String() string { return operand(e.l, false) + " AND " + operand(e.r, false) }
func (e orExpr) String() string  { return e.l.String() + " OR " + e.r.String() }
func (e notExpr) String() string { return "NOT " + operand(e.e, true) }

func operand(e expr, underNot bool) string {
	switch e.(type) {
	case orExpr:
		return "(" + e.String() + ")"
	case andExpr:
		if underNot {
			return "(" + e.String() + ")"
		}
	}
	return e.String()
}

func (e andExpr) match(l map[string]bool) bool { return e.l.match(l) && e.r.match(l) }
func (e orExpr) match(l map[string]bool) bool  { return e.l.match(l) || e.r.match(l) }
func (e notExpr) match(l map[string]bool) bool { return !e.e.match(l) }

// answer is what the server must say to a query: how many traces match
// and, in lexicographic order, the first IDs of them.
type answer struct {
	count int
	head  []string // at most headLen IDs
}

const headLen = 100

// evaluate answers e over a set of labelled traces: labels[of[k]] is the
// label set of ids[k].
func evaluate(e expr, ids []store.TraceID, of []int32, labels [][]string) answer {
	hit := make([]bool, len(labels))
	for d, ls := range labels {
		set := make(map[string]bool, len(ls))
		for _, l := range ls {
			set[l] = true
		}
		hit[d] = e.match(set)
	}
	var matched []string
	for k, id := range ids {
		if hit[of[k]] {
			matched = append(matched, string(id))
		}
	}
	sort.Strings(matched)
	return answer{count: len(matched), head: matched[:min(headLen, len(matched))]}
}

// agrees reports whether a server's answer (count, IDs cut at some
// limit) is the oracle's.
func (a answer) agrees(count int, ids []string) bool {
	if count != a.count || len(ids) > count {
		return false
	}
	for i := 0; i < min(len(ids), len(a.head)); i++ {
		if ids[i] != a.head[i] {
			return false
		}
	}
	return true
}
