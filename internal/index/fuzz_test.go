package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// fuzzIndex builds a small index spanning every category, so term
// expansion and NOT-against-the-universe both have material to chew on.
func fuzzIndex() *Index {
	ix := New()
	all := category.All()
	for i, c := range all {
		id := store.TraceID(strings.Repeat("0", 60) + string(rune('a'+i%26)) + "fff")
		ix.Add(id, category.NewSet(c, all[(i+7)%len(all)]))
	}
	return ix
}

// FuzzQueryParse hammers the boolean query parser: queries now arrive
// over the peer RPC as well as the public API, so arbitrary input must
// never panic or overflow the stack, parseQuery and Query must agree on
// validity, and every accepted query must evaluate to a sorted,
// deduplicated ID list.
func FuzzQueryParse(f *testing.F) {
	seeds := []string{
		"",
		"read_periodic",
		"read_periodic AND write_aperiodic",
		"read_periodic OR write_aperiodic",
		"NOT metadata_insignificant_load",
		"read NOT write",
		"(read OR write) AND NOT metadata",
		"((read))",
		"read write",           // juxtaposition = AND
		"rEaD oR wRiTe",        // case-insensitive keywords
		"read,write",           // comma separator
		"read AND",             // dangling operator
		"AND read",             // leading operator
		"(read",                // unclosed paren
		"read)",                // stray close
		"zzz_no_such_category", // term matching nothing
		"NOT NOT NOT read",     // stacked negation
		strings.Repeat("(", 600) + "read" + strings.Repeat(")", 600), // past the depth cap
		"read\t\nwrite\r",
		"()",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	ix := fuzzIndex()
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 1<<16 {
			return // bound tokenizer work, not a parser property
		}
		_, parseErr := parseQuery(q)
		ids, queryErr := ix.Query(q)
		if (parseErr == nil) != (queryErr == nil) {
			t.Fatalf("parse err %v but Query err %v for %q", parseErr, queryErr, q)
		}
		if queryErr != nil {
			return
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("Query(%q) output unsorted or duplicated at %d: %q >= %q", q, i, ids[i-1], ids[i])
			}
		}
	})
}

// FuzzQueryEval is the differential fuzz target: a deterministic
// random corpus (seeded by the fuzzer, including removes and re-adds
// so the delta log and compaction both engage) indexed into the
// posting-list engine and the map-based Oracle, which must agree
// exactly on every fuzzed query. Each category's density is drawn from
// the seed among the classes on either side of the posting size rule
// (skewedSets), and one seed in three adds no churn, so generations
// hold lists beside bitmaps at exactly the boundary cardinalities.
func FuzzQueryEval(f *testing.F) {
	for _, s := range []struct {
		seed uint64
		q    string
	}{
		{1, "write_on_end"},
		{2, "periodic_minute AND write_on_end NOT insignificant_load"},
		{3, "NOT (read_on_start OR write_on_end)"},
		{4, "NOT busy AND NOT spike"},
		{5, "(read OR write) AND NOT metadata"},
		{6, "write_on_end OR NOT write_on_end"},
		{7, "steady spike single"},
		{8, "NOT NOT read_on_start"},
	} {
		f.Add(s.seed, s.q)
	}
	f.Fuzz(func(t *testing.T, seed uint64, q string) {
		if len(q) > 1<<12 {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + rng.Intn(300)
		churn := rng.Intn(3) != 0
		ix, or := New(), NewOracle()
		ix.compactMin = 16 // tiny threshold: folds happen mid-corpus
		all := category.All()
		for i, s := range skewedSets(rng, n) {
			tid := id(i)
			ix.Add(tid, s)
			or.Add(tid, s)
			if churn && rng.Intn(4) == 0 {
				victim := id(rng.Intn(i + 1))
				if rng.Intn(2) == 0 {
					ix.Remove(victim)
					or.Remove(victim)
				} else {
					s2 := category.NewSet(all[rng.Intn(len(all))])
					ix.Add(victim, s2)
					or.Add(victim, s2)
				}
			}
		}
		ix.waitCompact()
		if ix.Len() != or.Len() {
			t.Fatalf("Len: engine=%d oracle=%d", ix.Len(), or.Len())
		}
		got, gerr := ix.Query(q)
		want, werr := or.Query(q)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Query(%q): engine err=%v oracle err=%v", q, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("Query(%q): engine %d ids, oracle %d ids", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Query(%q): mismatch at %d: engine %q oracle %q", q, i, got[i], want[i])
			}
		}
		checkPages(t, ix, q, want)
	})
}

// FuzzPostingAlgebra checks the set algebra itself against a map
// evaluation: two fuzzer-chosen ordinal sets over a fuzzer-chosen
// universe, each forced into each form, through AND, OR, NOT, count and
// the cursor's first k. Inputs are borrowed, as a generation's postings
// are, and must come out bit for bit as they went in.
func FuzzPostingAlgebra(f *testing.F) {
	f.Add(uint16(0), []byte{}, []byte{}, uint8(0))
	f.Add(uint16(1), []byte{0, 0}, []byte{}, uint8(1))
	f.Add(uint16(64), []byte{0, 0, 0, 63, 0, 63}, []byte{0, 63}, uint8(2))
	f.Add(uint16(65), []byte{0, 64, 0, 0}, []byte{0, 63, 0, 64}, uint8(100))
	f.Add(uint16(129), []byte{0, 128, 0, 127, 0, 1}, []byte{0, 128, 0, 64, 0, 65, 0, 2}, uint8(3))
	f.Add(uint16(1000), []byte{3, 231, 0, 0, 1, 0, 2, 0}, []byte{3, 231, 1, 0, 1, 1}, uint8(4))
	f.Fuzz(func(t *testing.T, n uint16, rawA, rawB []byte, k uint8) {
		if len(rawA)+len(rawB) > 1<<12 {
			return
		}
		dict := make([]store.TraceID, n)
		for i := range dict {
			dict[i] = id(i)
		}
		members := func(raw []byte) map[uint32]struct{} {
			m := map[uint32]struct{}{}
			for ; n > 0 && len(raw) >= 2; raw = raw[2:] {
				m[(uint32(raw[0])<<8|uint32(raw[1]))%uint32(n)] = struct{}{}
			}
			return m
		}
		sorted := func(m map[uint32]struct{}) []uint32 {
			out := make([]uint32, 0, len(m))
			for ord := range m {
				out = append(out, ord)
			}
			slices.Sort(out)
			return out
		}
		// Both forms of one set, as fresh borrowed storage.
		build := func(m map[uint32]struct{}) [2]ordSet {
			bm := make([]uint64, wordsFor(int(n)))
			for ord := range m {
				bm[ord>>6] |= 1 << (ord & 63)
			}
			return [2]ordSet{{list: sorted(m)}, {bits: bm, dense: true}}
		}
		check := func(op string, got ordSet, want map[uint32]struct{}) {
			t.Helper()
			if !got.dense && !slices.IsSorted(got.list) {
				t.Fatalf("%s: list result out of order: %v", op, got.list)
			}
			if got.dense && len(got.bits) != wordsFor(int(n)) {
				t.Fatalf("%s: bitmap of %d words over %d ordinals", op, len(got.bits), n)
			}
			if got.count() != len(want) {
				t.Fatalf("%s: count %d, want %d", op, got.count(), len(want))
			}
			for ord := uint32(0); ord < uint32(n); ord++ {
				if _, in := want[ord]; got.has(ord) != in {
					t.Fatalf("%s: has(%d) = %v", op, ord, !in)
				}
			}
			// First k through the cursor, in one take and then in two
			// around a bound in the middle of the universe.
			ords := sorted(want)
			for _, bound := range []uint32{uint32(n), uint32(n) / 2} {
				cur := ordCursor{set: got}
				ids := cur.take(make([]string, 0, k), dict, bound, int(k))
				ids = cur.take(ids, dict, uint32(n), int(k)-len(ids))
				if len(ids) != min(int(k), len(ords)) {
					t.Fatalf("%s: first %d of %d members came back as %d", op, k, len(ords), len(ids))
				}
				for i, tid := range ids {
					if tid != string(dict[ords[i]]) {
						t.Fatalf("%s: member %d of the first %d is %s, want ordinal %d", op, i, k, tid, ords[i])
					}
				}
			}
			// Everything but one member: read up to it, step over it,
			// read on — what the delta overlay does to an overridden ordinal.
			if len(ords) > 0 {
				mid := len(ords) / 2
				cur := ordCursor{set: got}
				ids := cur.take(make([]string, 0, len(ords)), dict, ords[mid], len(ords))
				cur.skip()
				ids = cur.take(ids, dict, uint32(n), len(ords)-len(ids))
				rest := slices.Delete(ords, mid, mid+1)
				if len(ids) != len(rest) {
					t.Fatalf("%s: %d members around a skipped one, want %d", op, len(ids), len(rest))
				}
				for i, tid := range ids {
					if tid != string(dict[rest[i]]) {
						t.Fatalf("%s: member %d around a skipped one is %s, want ordinal %d", op, i, tid, rest[i])
					}
				}
			}
		}
		ma, mb := members(rawA), members(rawB)
		and, or, notA := map[uint32]struct{}{}, map[uint32]struct{}{}, map[uint32]struct{}{}
		for ord := uint32(0); ord < uint32(n); ord++ {
			_, inA := ma[ord]
			_, inB := mb[ord]
			if inA && inB {
				and[ord] = struct{}{}
			}
			if inA || inB {
				or[ord] = struct{}{}
			}
			if !inA {
				notA[ord] = struct{}{}
			}
		}
		sc := &scratch{}
		for fa, a := range build(ma) {
			for fb, b := range build(mb) {
				keepA, keepB := build(ma)[fa], build(mb)[fb]
				op := fmt.Sprintf("forms %d,%d", fa, fb)
				check(op+" and", sc.and(a, b), and)
				check(op+" or", sc.or(a, b), or)
				check(op+" not", sc.not(a, int(n)), notA)
				// Owned operands may be overwritten, and must still be right.
				own := func(s ordSet) ordSet {
					s.list, s.bits, s.owned = slices.Clone(s.list), slices.Clone(s.bits), true
					return s
				}
				check(op+" and, owned", sc.and(own(a), own(b)), and)
				check(op+" or, owned", sc.or(own(a), own(b)), or)
				check(op+" not, owned", sc.not(own(a), int(n)), notA)
				check(op+" not not", sc.not(sc.not(a, int(n)), int(n)), ma)
				if !reflect.DeepEqual(a, keepA) || !reflect.DeepEqual(b, keepB) {
					t.Fatalf("%s: a borrowed operand was written", op)
				}
			}
		}
	})
}

// FuzzMergeSorted checks the scatter-gather reduce step: any partition
// of ID lists — sorted or not — must merge to the sorted, deduplicated
// union.
func FuzzMergeSorted(f *testing.F) {
	f.Add("a,b,c|b,c,d", "")
	f.Add("", "a|a|a")
	f.Add("c,b,a", "x,y")
	f.Fuzz(func(t *testing.T, one, two string) {
		split := func(s string) [][]string {
			var out [][]string
			for _, part := range strings.Split(s, "|") {
				if part == "" {
					out = append(out, nil)
					continue
				}
				out = append(out, strings.Split(part, ","))
			}
			return out
		}
		lists := append(split(one), split(two)...)
		got := MergeSorted(lists...)
		want := map[string]struct{}{}
		for _, l := range lists {
			for _, id := range l {
				want[id] = struct{}{}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("merge of %q|%q lost or duplicated IDs: %d != %d", one, two, len(got), len(want))
		}
		if !sort.StringsAreSorted(got) {
			t.Fatalf("merge of %q|%q is unsorted", one, two)
		}
		for _, id := range got {
			if _, ok := want[id]; !ok {
				t.Fatalf("merge invented ID %q", id)
			}
		}
	})
}
