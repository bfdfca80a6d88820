package reqtrace

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"time"
)

// Unattributed names the part of a root span no other span covers: in a
// budget, the root's own time.
const Unattributed = "unattributed"

// budgetSpan is one span of a trace as Budget sweeps it.
type budgetSpan struct {
	parent int // index of the parent span; -1: the root, or not in the trace
	slot   int // index into budgetScratch.names
	desc   int // running descendants
	active bool
	leaf   bool    // running with no running descendant
	mark   float64 // the sweep's share clock when it last became a leaf
}

// budgetName is one name's accumulated self-time in a trace.
type budgetName struct {
	name      string
	in, after float64 // ns
	hasIn     bool
	hasAfter  bool
}

// budgetScratch is what one Budget call works in, pooled so a finishing
// request trace costs no allocation.
type budgetScratch struct {
	spans  []budgetSpan
	events []uint64 // time<<eventTimeShift | close<<eventIndexBits | span index
	byID   []int32  // span index by ID counter, -1 for none
	names  []budgetName
}

var budgetPool = sync.Pool{New: func() any { return new(budgetScratch) }}

// A sweep event packs its time (ns from the root's start), whether it
// closes a span and the span's index into one word, so sorting the
// events is sorting integers: opens before closes at one instant.
const (
	eventIndexBits = 20
	eventTimeShift = eventIndexBits + 1
	maxEventTime   = 1<<(64-eventTimeShift) - 1
)

// budgetKey is the name a span is budgeted under: its own, or for a
// span named "kind:instance" (an "item:frame-3") the kind with its colon,
// so a budget has one row per layer however many instances a request has.
func budgetKey(name string) string {
	if i := strings.IndexByte(name, ':'); i > 0 {
		return name[:i+1]
	}
	return name
}

// Budget splits a finished trace's time among its spans and calls fn
// once per span name present, with that name's self-time in the trace:
// after false for the part inside the root span's interval, true for the
// part after the root ended (a 202-acked ingest's queued categorization).
// It then calls fn once more with Unattributed and the part of the root
// no other span covers. The split is a sweep over the trace's timeline:
// each instant goes to the spans running then that have no running
// descendant, shared equally when several overlap, and to Unattributed
// inside the root when none runs. So a span's self-time is its duration
// minus what its children cover, concurrent children divide what they
// cover instead of each claiming all of it, spans are clipped to the
// root's start, and the in-root times plus Unattributed add up to the
// root's duration exactly. The sweep sorts the spans' starts and ends
// once and keeps a share clock — the integral of 1/leaves over time — so
// a leaf's self-time is the clock's advance while it is one. A trace
// without a finished root calls nothing.
func (t *Trace) Budget(fn func(name string, after bool, self time.Duration)) {
	sc := budgetPool.Get().(*budgetScratch)
	defer budgetPool.Put(sc)
	sc.spans, sc.events, sc.names = sc.spans[:0], sc.events[:0], sc.names[:0]

	t.mu.Lock()
	rootAt := -1
	for i := range t.spans {
		if t.spans[i].ID == t.root {
			rootAt = i
			break
		}
	}
	if rootAt < 0 || len(t.spans) >= 1<<eventIndexBits {
		t.mu.Unlock()
		return
	}
	root := t.spans[rootAt]
	rootEnd := min(int64(root.Dur), maxEventTime)
	// Span IDs count up from the trace's base, so an ID's counter finds
	// its span; the root has no slot in sc.spans.
	ids := int(t.spanCtr.Load())
	if cap(sc.byID) <= ids {
		sc.byID = make([]int32, ids+1)
	}
	byID := sc.byID[:ids+1]
	for i := range byID {
		byID[i] = -1
	}
	counter := func(id SpanID) int {
		if k := binary.BigEndian.Uint64(id[:]) - t.spanBase; k <= uint64(ids) {
			return int(k)
		}
		return 0
	}
	for i := range t.spans {
		if i != rootAt {
			byID[counter(t.spans[i].ID)] = int32(len(sc.spans))
			sc.spans = append(sc.spans, budgetSpan{})
		}
	}
	n := 0
	for i := range t.spans {
		if i == rootAt {
			continue
		}
		s := &t.spans[i]
		start := min(max(int64(s.Start.Sub(root.Start)), 0), maxEventTime)
		end := min(max(int64(s.Start.Sub(root.Start)+s.Dur), start), maxEventTime)
		// A parent is made before its children, so its counter is lower:
		// requiring that keeps a malformed trace from closing a cycle.
		parent := -1
		if k := counter(s.Parent); s.Parent != t.root && k > 0 && k < counter(s.ID) {
			parent = int(byID[k])
		}
		key := budgetKey(s.Name)
		slot := slices.IndexFunc(sc.names, func(n budgetName) bool { return n.name == key })
		if slot < 0 {
			slot = len(sc.names)
			sc.names = append(sc.names, budgetName{name: key})
		}
		sc.spans[n] = budgetSpan{parent: parent, slot: slot}
		sc.events = append(sc.events,
			uint64(start)<<eventTimeShift|uint64(n),
			uint64(end)<<eventTimeShift|1<<eventIndexBits|uint64(n))
		n++
	}
	t.mu.Unlock()
	slices.Sort(sc.events)

	var (
		spans        = sc.spans
		clock        float64 // ∫ dt/leaves over the time any leaf runs
		leaves       int
		now          int64
		after        bool
		unattributed float64
	)
	credit := func(i int) {
		s := &spans[i]
		if d := clock - s.mark; d > 0 {
			nm := &sc.names[s.slot]
			if after {
				nm.after += d
				nm.hasAfter = true
			} else {
				nm.in += d
				nm.hasIn = true
			}
		}
		s.mark = clock
	}
	setLeaf := func(i int, leaf bool) {
		s := &spans[i]
		if s.leaf == leaf {
			return
		}
		if leaf {
			s.mark = clock
			leaves++
		} else {
			credit(i)
			leaves--
		}
		s.leaf = leaf
	}
	advance := func(to int64) {
		for now < to {
			next := to
			if !after && rootEnd < to {
				next = rootEnd
			}
			if dt := float64(next - now); leaves > 0 {
				clock += dt / float64(leaves)
			} else if !after {
				unattributed += dt
			}
			now = next
			if !after && now >= rootEnd {
				for i := range spans {
					if spans[i].leaf {
						credit(i)
					}
				}
				after = true
			}
		}
	}
	for _, ev := range sc.events {
		i := int(ev & (1<<eventIndexBits - 1))
		advance(int64(ev >> eventTimeShift))
		s := &spans[i]
		if ev&(1<<eventIndexBits) == 0 { // opens
			s.active = true
			setLeaf(i, s.desc == 0)
			for p := s.parent; p >= 0; p = spans[p].parent {
				if spans[p].desc == 0 && spans[p].active {
					setLeaf(p, false)
				}
				spans[p].desc++
			}
		} else { // closes
			setLeaf(i, false)
			s.active = false
			for p := s.parent; p >= 0; p = spans[p].parent {
				spans[p].desc--
				if spans[p].desc == 0 && spans[p].active {
					setLeaf(p, true)
				}
			}
		}
	}
	advance(rootEnd)
	for _, nm := range sc.names {
		if nm.hasIn {
			fn(nm.name, false, time.Duration(nm.in))
		}
		if nm.hasAfter {
			fn(nm.name, true, time.Duration(nm.after))
		}
	}
	fn(Unattributed, false, time.Duration(unattributed))
	clear(sc.names) // drop the name strings before pooling
}
