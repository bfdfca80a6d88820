package index

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/jsontext"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// churn drives both engines through adds between, below and above the
// existing IDs, overrides, tombstones, re-adds of tombstoned traces
// and removes of traces that only ever lived in the delta.
func churn(rng *rand.Rand, ops int, ix *Index, or *Oracle) {
	all := category.All()
	randSet := func() category.Set {
		s := category.NewSet()
		for _, c := range all {
			if rng.Intn(4) == 0 {
				s.Add(c)
			}
		}
		return s
	}
	for i := 0; i < ops; i++ {
		tid := id(rng.Intn(4200)) // the base holds the even IDs in [100, 4100)
		if rng.Intn(3) == 0 {
			ix.Remove(tid)
			or.Remove(tid)
			continue
		}
		s := randSet()
		ix.Add(tid, s)
		or.Add(tid, s)
	}
}

// TestPageOverDelta checks the paged core against the oracle while the
// delta is unfolded: first with compaction held off entirely, so every
// answer is a generation overlaid by hundreds of ops, then with the
// threshold forced small, so answers are taken across many folds.
func TestPageOverDelta(t *testing.T) {
	for _, compactMin := range []int{1 << 30, 16} {
		rng := rand.New(rand.NewSource(42))
		ix, or := New(), NewOracle()
		ix.compactMin = compactMin
		var base []Entry
		for i := 100; i < 4100; i += 2 {
			s := category.NewSet()
			for _, c := range category.All() {
				if rng.Intn(4) == 0 {
					s.Add(c)
				}
			}
			base = append(base, Entry{ID: id(i), Cats: s})
			or.Add(id(i), s)
		}
		ix.Load(base)
		loaded := ix.snap.Load().gen
		for round := 0; round < 4; round++ {
			churn(rng, 150, ix, or)
			if s := ix.snap.Load(); compactMin == 1<<30 && (s.gen != loaded || len(s.ops) < 100*(round+1)) {
				t.Fatalf("round %d: delta holds %d ops (compacted: %v), want it unfolded",
					round, len(s.ops), s.gen != loaded)
			}
			checkAgree(t, ix, or, diffQueries)
		}
		ix.waitCompact()
		checkAgree(t, ix, or, diffQueries)
	}
}

// TestPageWordBoundaries takes generations whose size sits on and
// around a bitmap word edge — where a complement must mask its tail
// word and the cursor must stop inside or exactly at the end of one —
// with one category on every trace, one on none and one on the last
// ordinal alone, and then lands delta overrides, tombstones and inserts
// on the last word.
func TestPageWordBoundaries(t *testing.T) {
	queries := append([]string{
		"NOT read_on_start",       // complement of the empty set
		"NOT write_on_end",        // complement of the full set
		"NOT metadata_high_spike", // everything but the last ordinal
		"write_on_end AND NOT metadata_high_spike",
		"metadata_high_spike OR NOT write_on_end",
		"NOT (NOT read_on_start AND NOT metadata_high_spike)",
	}, diffQueries...)
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		t.Logf("n = %d", n)
		rng := rand.New(rand.NewSource(int64(n)))
		ix, or := New(), NewOracle()
		ix.compactMin = 1 << 30
		items := make([]Entry, n)
		for i, s := range skewedSets(rng, n) {
			s.Add("write_on_end")
			s &^= set("read_on_start", "metadata_high_spike")
			if i == n-1 {
				s.Add("metadata_high_spike")
			}
			items[i] = Entry{ID: id(100 + 10*i), Cats: s}
			or.Add(items[i].ID, s)
		}
		ix.Load(items)
		checkAgree(t, ix, or, queries)

		last, above, below := id(90+10*n), id(95+10*n), id(85+10*n)
		steps := []struct {
			tid  store.TraceID
			cats category.Set // 0 removes
		}{
			{above, set("metadata_high_spike")},           // a match after every ordinal
			{last, set("read_on_start")},                  // override on the last ordinal
			{below, set("write_on_end", "read_on_start")}, // a match inside the last word
			{last, 0},
			{last, set("write_on_end", "metadata_high_spike")},
			{above, 0},
		}
		for i, st := range steps {
			if st.cats == 0 {
				ix.Remove(st.tid)
				or.Remove(st.tid)
			} else {
				ix.Add(st.tid, st.cats)
				or.Add(st.tid, st.cats)
			}
			t.Logf("step %d", i)
			checkAgree(t, ix, or, queries)
		}
		ix.compactOnce()
		checkAgree(t, ix, or, queries)
	}
}

// TestScratchWordsFollowGeneration: the scratch outlives generations,
// so a bitmap buffer pooled under a smaller one must not be handed out
// short once the index has grown.
func TestScratchWordsFollowGeneration(t *testing.T) {
	sc := &scratch{}
	sc.release(ordSet{bits: sc.getWords(1), dense: true, owned: true})
	if b := sc.getWords(5); len(b) != 5 {
		t.Fatalf("asked for 5 words after pooling 1, got %d", len(b))
	}
	small, big := New(), New()
	small.Load([]Entry{{ID: id(1), Cats: set("write_on_end")}})
	var items []Entry
	for i := 0; i < 1000; i++ {
		items = append(items, Entry{ID: id(i), Cats: set("write_on_end")})
	}
	big.Load(items)
	for i := 0; i < 50; i++ { // the pool is per-P and lossy: alternate enough to meet a warm scratch
		for ix, want := range map[*Index]int{small: 1, big: 1000} {
			page, err := ix.QueryPage(nil, "NOT read_on_start AND (write_on_end OR NOT write_on_end)", 3)
			if err != nil || page.Count != want {
				t.Fatalf("count %d (err %v), want %d", page.Count, err, want)
			}
		}
	}
}

// TestPlainBit: a generation is vouched for exactly when every ID in it
// needs no JSON escaping, a delta match is judged on its own, and IDs
// that need escaping come back unchanged all the same.
func TestPlainBit(t *testing.T) {
	cats := set("write_on_end")
	odd := []store.TraceID{"quo\"te", "back\\slash", "ctl\x01", "lt<", "amp&", "bad\xff", "sep\u2028", "\u00e9"}
	for _, bad := range odd {
		if jsontext.Plain(string(bad)) {
			t.Fatalf("jsontext.Plain(%q) = true", bad)
		}
		ix := New()
		ix.Load([]Entry{{ID: "aaa", Cats: cats}, {ID: bad, Cats: cats}, {ID: "zzz", Cats: cats}})
		if ix.snap.Load().gen.plain {
			t.Fatalf("generation holding %q is vouched for", bad)
		}
		page, err := ix.QueryPage(nil, "write_on_end", -1)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"aaa", string(bad), "zzz"}
		if bad > "zzz" {
			want = []string{"aaa", "zzz", string(bad)}
		}
		if page.Plain || page.Count != 3 || !reflect.DeepEqual(page.IDs, want) {
			t.Fatalf("page over %q: %+v, want unvouched %q", bad, page, want)
		}
		// Even a page that stops short of the odd ID is not vouched for:
		// the bit is the generation's.
		if page, _ := ix.QueryPage(nil, "write_on_end", 1); page.Plain {
			t.Fatalf("page of a generation holding %q is vouched for", bad)
		}
		// Folding its removal in brings the bit back.
		ix.compactMin = 1
		ix.Remove(bad)
		ix.waitCompact()
		if s := ix.snap.Load(); len(s.ops) != 0 || !s.gen.plain {
			t.Fatalf("after removing %q: %d ops, plain=%v", bad, len(s.ops), s.gen.plain)
		}
	}
	if !jsontext.Plain("0123456789abcdef-_.~ /:") || !jsontext.Plain("") {
		t.Fatal("jsontext.Plain refuses a plain string")
	}

	// Plain generation, odd ID in the delta: only a page that holds it
	// loses the bit, and a merge carries the verdict into the generation.
	ix := New()
	ix.compactMin = 1 << 30
	ix.Load([]Entry{{ID: "aaa", Cats: cats}, {ID: "ccc", Cats: cats}})
	ix.Add("bb\"b", cats)
	for limit, plain := range map[int]bool{1: true, 2: false, -1: false} {
		page, err := ix.QueryPage(nil, "write_on_end", limit)
		if err != nil {
			t.Fatal(err)
		}
		if page.Plain != plain || page.Count != 3 {
			t.Fatalf("limit %d: %+v, want plain=%v", limit, page, plain)
		}
	}
	ix.compactOnce()
	if ix.snap.Load().gen.plain {
		t.Fatal("merge vouched for a generation holding a quoted ID")
	}
}
