package index

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
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

// TestPlainBit: a generation is vouched for exactly when every ID in it
// needs no JSON escaping, a delta match is judged on its own, and IDs
// that need escaping come back unchanged all the same.
func TestPlainBit(t *testing.T) {
	cats := set("write_on_end")
	odd := []store.TraceID{"quo\"te", "back\\slash", "ctl\x01", "lt<", "amp&", "bad\xff", "sep\u2028", "\u00e9"}
	for _, bad := range odd {
		if JSONPlain(string(bad)) {
			t.Fatalf("JSONPlain(%q) = true", bad)
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
	if !JSONPlain("0123456789abcdef-_.~ /:") || !JSONPlain("") {
		t.Fatal("JSONPlain refuses a plain string")
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
