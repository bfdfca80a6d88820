package index

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/jsontext"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Query grammar (case-insensitive keywords, left-associative):
//
//	expr   := orExpr
//	orExpr := andExpr ( "OR" andExpr )*
//	andExpr:= unary ( ("AND" | "NOT")? unary )*      // juxtaposition = AND;
//	                                                 // "a NOT b" = a AND (NOT b)
//	unary  := "NOT" unary | "(" expr ")" | term
//	term   := category name or substring of one
//
// A term expands to the union of all canonical categories whose name
// contains it: "periodic_minute" matches read_periodic_minute and
// write_periodic_minute; "insignificant_load" matches
// metadata_insignificant_load. NOT is evaluated against the universe
// of indexed traces.

// node is one parsed query expression. The same AST feeds two
// evaluators: compile() lowers it to a posting-list plan for Index,
// and Oracle walks it directly over hash-map sets.
type node interface{ isNode() }

type termNode struct{ cats []category.Category }

type andNode struct{ l, r node }

type orNode struct{ l, r node }

type notNode struct{ n node }

func (termNode) isNode() {}
func (andNode) isNode()  {}
func (orNode) isNode()   {}
func (notNode) isNode()  {}

// ParseError describes a malformed query.
type ParseError struct {
	Query string
	Pos   int // token index
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("index: parsing %q: %s (near token %d)", e.Query, e.Msg, e.Pos)
}

type parser struct {
	query  string
	tokens []string
	pos    int
	depth  int
}

// maxParseDepth caps expression nesting. The parser is recursive, and
// in cluster mode queries arrive over the peer RPC as well as the
// public API — an adversarial "((((…" must produce a parse error, not
// a stack overflow.
const maxParseDepth = 512

func tokenize(q string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range q {
		switch r {
		case '(', ')':
			flush()
			out = append(out, string(r))
		case ' ', '\t', '\n', '\r', ',':
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

func (p *parser) peek() (string, bool) {
	if p.pos >= len(p.tokens) {
		return "", false
	}
	return p.tokens[p.pos], true
}

func (p *parser) fail(msg string) error {
	return &ParseError{Query: p.query, Pos: p.pos, Msg: msg}
}

func (p *parser) parseExpr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		tok, ok := p.peek()
		if !ok || !strings.EqualFold(tok, "OR") {
			return left, nil
		}
		p.pos++
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orNode{l: left, r: right}
	}
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		tok, ok := p.peek()
		if !ok || tok == ")" || strings.EqualFold(tok, "OR") {
			return left, nil
		}
		negate := false
		switch {
		case strings.EqualFold(tok, "AND"):
			p.pos++
		case strings.EqualFold(tok, "NOT"):
			// "a NOT b" is shorthand for "a AND NOT b".
			p.pos++
			negate = true
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if negate {
			right = notNode{n: right}
		}
		left = andNode{l: left, r: right}
	}
}

func (p *parser) parseUnary() (node, error) {
	tok, ok := p.peek()
	if !ok {
		return nil, p.fail("unexpected end of query")
	}
	// NOT and "(" both recurse; everything else is flat.
	if strings.EqualFold(tok, "NOT") || tok == "(" {
		p.depth++
		defer func() { p.depth-- }()
		if p.depth > maxParseDepth {
			return nil, p.fail("query too deeply nested")
		}
	}
	switch {
	case strings.EqualFold(tok, "NOT"):
		p.pos++
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notNode{n: inner}, nil
	case tok == "(":
		p.pos++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		closing, ok := p.peek()
		if !ok || closing != ")" {
			return nil, p.fail("missing closing parenthesis")
		}
		p.pos++
		return inner, nil
	case tok == ")":
		return nil, p.fail("unexpected closing parenthesis")
	case strings.EqualFold(tok, "AND") || strings.EqualFold(tok, "OR"):
		return nil, p.fail("operator needs a left operand")
	default:
		p.pos++
		cats := expandTerm(tok)
		if len(cats) == 0 {
			return nil, p.fail(fmt.Sprintf("term %q matches no category", tok))
		}
		return termNode{cats: cats}, nil
	}
}

// expandTerm resolves a query term against the closed category set:
// an exact name wins; otherwise every category containing the term as
// a substring matches.
func expandTerm(term string) []category.Category {
	t := strings.ToLower(term)
	all := category.All()
	for _, c := range all {
		if string(c) == t {
			return []category.Category{c}
		}
	}
	var out []category.Category
	for _, c := range all {
		if strings.Contains(string(c), t) {
			out = append(out, c)
		}
	}
	return out
}

func parseQuery(q string) (node, error) {
	p := &parser{query: q, tokens: tokenize(q)}
	if len(p.tokens) == 0 {
		return nil, &ParseError{Query: q, Msg: "empty query"}
	}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.tokens) {
		return nil, p.fail("trailing tokens")
	}
	return root, nil
}

// Query evaluates a boolean category expression, returning matching
// trace IDs in lexicographic order.
func (ix *Index) Query(q string) ([]store.TraceID, error) {
	p, err := ix.QueryPage(nil, q, -1)
	if err != nil {
		return nil, err
	}
	out := make([]store.TraceID, len(p.IDs))
	for i, id := range p.IDs {
		out[i] = store.TraceID(id)
	}
	return out, nil
}

// Page is one query answer: how many traces match, and the first of
// them in lexicographic order.
type Page struct {
	Count int
	IDs   []string
	// Plain is the index's word that jsontext.Plain holds for every ID in
	// IDs, so a JSON writer may copy them without looking inside.
	Plain bool
	// ByClass splits Count by placement class (Classify); nil when the
	// index keeps none.
	ByClass []int
}

// QueryPage evaluates a boolean category expression against a single
// snapshot and returns the match count with the first limit matching
// IDs (every match when limit < 0) appended to dst. The count costs no
// materialization — it is the length of a list result or the popcount
// of a bitmap one, adjusted by the unfolded delta — and nothing is built
// per match that is not returned: an ordinal becomes a string only on
// its way into the page. IDs is never nil on success: an empty answer
// is an empty list, as it always was.
func (ix *Index) QueryPage(dst []string, q string, limit int) (Page, error) {
	plan, err := compileQuery(q)
	if err != nil {
		return Page{}, err
	}
	s := ix.snap.Load()
	g := s.gen
	sc := getScratch()
	defer putScratch(sc)

	res := plan.eval(g, sc)
	count := res.count()
	var byClass []int
	if ix.classes > 0 {
		byClass = make([]int, ix.classes)
		res.countByClass(byClass, g)
	}

	// Delta overlay, latest op per ID wins: a generation ordinal the
	// delta overrides leaves the result, and a delta trace whose
	// category set satisfies the expression joins it by ID.
	var overridden, dropped, matchAt []uint32
	matches := sc.ids[:0]
	if len(s.ops) > 0 {
		seen := sc.seenMap()
		overridden = sc.get()
		for i := len(s.ops) - 1; i >= 0; i-- {
			op := s.ops[i]
			if _, dup := seen[op.id]; dup {
				continue
			}
			seen[op.id] = struct{}{}
			if ord, ok := g.ordinalOf(op.id); ok {
				overridden = append(overridden, ord)
			}
			if op.live && plan.matches(op.set) {
				matches = append(matches, string(op.id))
				if byClass != nil {
					byClass[op.class]++
				}
			}
		}
		sc.ids = matches
		slices.Sort(overridden)
		slices.Sort(matches)
		// Only overridden ordinals that are in the result matter from
		// here on; keep those, in place.
		dropped = overridden[:0]
		for _, ord := range overridden {
			if res.has(ord) {
				dropped = append(dropped, ord)
				if byClass != nil {
					byClass[g.class[ord]]--
				}
			}
		}
		// A delta match goes in just before the first generation ID
		// that is not below it.
		matchAt = sc.get()
		for _, id := range matches {
			matchAt = append(matchAt, g.lowerBound(store.TraceID(id)))
		}
		count += len(matches) - len(dropped)
	}

	n := count
	if limit >= 0 && limit < n {
		n = limit
	}
	page := Page{Count: count, IDs: slices.Grow(dst, n), Plain: g.plain, ByClass: byClass}
	if page.IDs == nil {
		page.IDs = []string{}
	}
	// The page is runs of generation IDs between the ordinals where the
	// delta has something to say; with no delta it is one run.
	end := len(dst) + n
	cur := ordCursor{set: res}
	mAt := matchAt // matchAt itself goes back to the scratch
	for len(page.IDs) < end {
		bound := uint32(g.n())
		if len(mAt) > 0 {
			bound = mAt[0]
		}
		if len(dropped) > 0 && dropped[0] < bound {
			bound = dropped[0]
		}
		page.IDs = cur.take(page.IDs, g.ids, bound, end-len(page.IDs))
		if len(page.IDs) == end {
			break
		}
		if len(mAt) > 0 && mAt[0] == bound {
			page.Plain = page.Plain && jsontext.Plain(matches[0])
			page.IDs = append(page.IDs, matches[0])
			matches, mAt = matches[1:], mAt[1:]
		} else {
			cur.skip() // dropped[0], which is in the result, is the cursor's next
			dropped = dropped[1:]
		}
	}
	sc.release(res)
	sc.put(overridden)
	sc.put(matchAt)
	return page, nil
}

// ordCursor walks an ordinal set in ascending order: the entries of a
// list, or the set bits of a bitmap.
type ordCursor struct {
	set ordSet
	i   int    // list: next unread entry
	at  uint32 // bitmap: every member below at has been read
}

// take appends the IDs of the cursor's next ordinals below bound, room
// of them at most. ids must have that much spare capacity. When it
// returns short of room, every member below bound has been read.
func (c *ordCursor) take(ids []string, dict []store.TraceID, bound uint32, room int) []string {
	if !c.set.dense {
		run := c.set.list[c.i:]
		if len(run) > room {
			run = run[:room]
		}
		if len(run) > 0 && run[len(run)-1] >= bound {
			run = run[:advance(run, 0, bound)]
		}
		c.i += len(run)
		k := len(ids)
		ids = ids[:k+len(run)]
		for i, ord := range run {
			ids[k+i] = string(dict[ord])
		}
		return ids
	}
	k := len(ids)
	out := ids[k : k+room]
	j, at := 0, c.at
	for at < bound && j < room {
		w := c.set.bits[at>>6] >> (at & 63)
		if w == 0 {
			at = at&^63 + 64
			continue
		}
		at += uint32(bits.TrailingZeros64(w))
		if at >= bound {
			break
		}
		out[j] = string(dict[at])
		j++
		at++
	}
	c.at = at
	return ids[:k+j]
}

// skip steps over the cursor's next ordinal; on a bitmap that is the
// bound the last take stopped at.
func (c *ordCursor) skip() {
	if c.set.dense {
		c.at++
	} else {
		c.i++
	}
}

// MergeSorted merges sorted trace-ID lists into one sorted,
// deduplicated list — the scatter-gather reduce step, where each
// shard's Query answer is already ordered and a replicated trace
// appears in more than one shard's answer. Unsorted inputs still
// produce a correct (sorted, deduplicated) union; sorted inputs merge
// in linear time for small K and O(total·log K) through a loser tree
// above mergeLinearMaxK lists.
func MergeSorted(lists ...[]string) []string {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	return MergeSortedInto(make([]string, 0, total), lists...)
}

// mergeLinearMaxK is the list count up to which a linear head scan
// beats the loser tree's bookkeeping.
const mergeLinearMaxK = 8

// MergeSortedInto is MergeSorted appending into dst (reset to
// dst[:0]), so callers on the fan-in hot path can pool the output
// slice.
func MergeSortedInto(dst []string, lists ...[]string) []string {
	dst = dst[:0]
	if len(lists) <= mergeLinearMaxK {
		dst = mergeLinear(dst, lists)
	} else {
		dst = mergeLoserTree(dst, lists)
	}
	if !sort.StringsAreSorted(dst) {
		// An unsorted input slipped through the merge; fall back.
		sort.Strings(dst)
		dst = dedupSorted(dst)
	}
	return dst
}

// mergeLinear repeatedly takes the smallest head by scanning all K
// lists — optimal when K is single digits.
func mergeLinear(dst []string, lists [][]string) []string {
	var headsArr [mergeLinearMaxK]int
	heads := headsArr[:len(lists)]
	for {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || l[heads[i]] < lists[best][heads[best]] {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		id := lists[best][heads[best]]
		heads[best]++
		if n := len(dst); n == 0 || dst[n-1] != id {
			dst = append(dst, id)
		}
	}
}

// loserTree is a tournament tree for K-way merging: node[1..k-1] hold
// the losers of each internal match, node[0] the overall winner, and
// replaying one leaf-to-root path (log K comparisons) replaces the
// winner after each pop. k is padded to a power of two with exhausted
// virtual lists.
type loserTree struct {
	node  []int32
	heads []int
	lists [][]string
}

var loserTreePool = sync.Pool{New: func() any { return &loserTree{} }}

// less reports whether leaf a's head sorts before leaf b's; exhausted
// leaves lose to everything.
func (t *loserTree) less(a, b int32) bool {
	la, lb := t.lists[a], t.lists[b]
	if t.heads[a] >= len(la) {
		return false
	}
	if t.heads[b] >= len(lb) {
		return true
	}
	sa, sb := la[t.heads[a]], lb[t.heads[b]]
	if sa != sb {
		return sa < sb
	}
	return a < b
}

// build plays the initial tournament under node n, recording losers
// and returning the winning leaf.
func (t *loserTree) build(n int32) int32 {
	k := int32(len(t.lists))
	if n >= k {
		return n - k
	}
	l, r := t.build(2*n), t.build(2*n+1)
	if t.less(l, r) {
		t.node[n] = r
		return l
	}
	t.node[n] = l
	return r
}

func mergeLoserTree(dst []string, lists [][]string) []string {
	k := 1
	for k < len(lists) {
		k <<= 1
	}
	t := loserTreePool.Get().(*loserTree)
	defer func() {
		clear(t.lists) // don't pin caller slices in the pool
		loserTreePool.Put(t)
	}()
	if cap(t.lists) < k {
		t.node = make([]int32, k)
		t.heads = make([]int, k)
		t.lists = make([][]string, k)
	}
	t.node, t.heads, t.lists = t.node[:k], t.heads[:k], t.lists[:k]
	clear(t.lists)
	clear(t.heads[:k])
	copy(t.lists, lists)

	t.node[0] = t.build(1)
	for {
		w := t.node[0]
		if t.heads[w] >= len(t.lists[w]) {
			return dst // winner exhausted ⇒ every list is
		}
		id := t.lists[w][t.heads[w]]
		t.heads[w]++
		if n := len(dst); n == 0 || dst[n-1] != id {
			dst = append(dst, id)
		}
		winner := w
		for parent := (w + int32(k)) / 2; parent >= 1; parent /= 2 {
			if t.less(t.node[parent], winner) {
				winner, t.node[parent] = t.node[parent], winner
			}
		}
		t.node[0] = winner
	}
}

func dedupSorted(ids []string) []string {
	out := ids[:0]
	for _, id := range ids {
		if n := len(out); n == 0 || out[n-1] != id {
			out = append(out, id)
		}
	}
	return out
}
