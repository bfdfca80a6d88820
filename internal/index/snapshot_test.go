package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Epoch-snapshot semantics: queries must observe one consistent
// state — never a half-applied rebuild, never a torn delta fold —
// while writers and the background compactor churn underneath.

// TestSnapshotConsistentMidRebuild populates world A (evens carry
// write_on_end, odds carry read_on_start), then rebuilds to the
// inverted world B from a real store while queries hammer the index.
// Every query answer must be exactly world A's set or exactly world
// B's set; a mixed answer means a torn swap.
func TestSnapshotConsistentMidRebuild(t *testing.T) {
	const n = 400
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const fp = "cfg-midrebuild000000"

	ix := New()
	evens := make(map[store.TraceID]bool, n/2)
	odds := make(map[store.TraceID]bool, n/2)
	var items []Entry
	for i := 0; i < n; i++ {
		tid := id(i)
		catA, catB := "read_on_start", "write_on_end"
		if i%2 == 0 {
			catA, catB = catB, catA
			evens[tid] = true
		} else {
			odds[tid] = true
		}
		items = append(items, Entry{ID: tid, Cats: set(category.Category(catA))})
		if err := st.PutResult(tid, fp, &core.Result{Labels: []string{catB}}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Load(items) // world A live; the store holds world B

	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				got, err := ix.Query("write_on_end")
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != n/2 {
					t.Errorf("torn snapshot: %d matches, want %d", len(got), n/2)
					return
				}
				world := evens
				if !evens[got[0]] {
					world = odds
				}
				for _, tid := range got {
					if !world[tid] {
						t.Errorf("mixed worlds in one answer: %s", tid)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 20; r++ {
		if _, err := ix.Rebuild(st, fp); err != nil {
			t.Fatal(err)
		}
		ix.Load(items) // back to world A, again atomically
	}
	done.Store(true)
	wg.Wait()
}

// TestSnapshotConcurrentChurn runs Add/Remove/Query/AxisCounts/
// Categories across goroutines with a tiny compaction threshold, so
// folds race real traffic under -race. Each goroutine owns a disjoint
// ID range; the terminal state is therefore deterministic and checked
// against a sequentially-built oracle.
func TestSnapshotConcurrentChurn(t *testing.T) {
	ix := New()
	ix.compactMin = 8
	const (
		goroutines = 8
		perG       = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				n := g*perG + i
				ix.Add(id(n), set("write_on_end", "metadata_high_spike"))
				switch rng.Intn(4) {
				case 0:
					ix.Remove(id(g*perG + rng.Intn(i+1)))
				case 1:
					ix.Add(id(g*perG+rng.Intn(i+1)), set("read_on_start"))
				case 2:
					if _, err := ix.Query("write_on_end NOT read_on_start"); err != nil {
						t.Error(err)
						return
					}
				default:
					ix.AxisCounts()
					ix.Set(id(n))
				}
			}
		}(g)
	}
	wg.Wait()
	ix.waitCompact()

	// Replay the same per-goroutine histories sequentially into the
	// oracle: disjoint ranges make cross-goroutine order irrelevant.
	or := NewOracle()
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < perG; i++ {
			n := g*perG + i
			or.Add(id(n), set("write_on_end", "metadata_high_spike"))
			switch rng.Intn(4) {
			case 0:
				or.Remove(id(g*perG + rng.Intn(i+1)))
			case 1:
				or.Add(id(g*perG+rng.Intn(i+1)), set("read_on_start"))
			}
		}
	}
	checkAgree(t, ix, or, diffQueries)
}

// TestDeltaCompactionInterleaved forces folds every few ops and
// verifies remove → re-add → remove chains survive the generation
// merge: the fold must honor latest-wins, and ops that arrive during
// a fold must carry over, not vanish.
func TestDeltaCompactionInterleaved(t *testing.T) {
	ix, or := New(), NewOracle()
	ix.compactMin = 4
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tid := id(rng.Intn(60)) // small ID space: constant overwrite pressure
		switch rng.Intn(3) {
		case 0:
			ix.Remove(tid)
			or.Remove(tid)
		case 1:
			ix.Add(tid, set("write_on_end"))
			or.Add(tid, set("write_on_end"))
		default:
			ix.Add(tid, set("read_on_start", "metadata_high_spike"))
			or.Add(tid, set("read_on_start", "metadata_high_spike"))
		}
		if i%97 == 0 {
			ix.waitCompact()
			checkAgree(t, ix, or, diffQueries[:8])
		}
	}
	ix.waitCompact()
	checkAgree(t, ix, or, diffQueries)
	// The whole history must have folded into very few residual ops.
	if got := len(ix.snap.Load().ops); got > ix.compactMin*2 {
		t.Fatalf("delta never compacted: %d residual ops", got)
	}
}

// TestSnapshotEmptyCategorySet: a trace indexed with no categories is
// still part of the universe (matches NOT queries) — in the
// generation and in the delta.
func TestSnapshotEmptyCategorySet(t *testing.T) {
	ix := New()
	ix.Add(id(1), set())
	ix.Add(id(2), set("write_on_end"))
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
	got, err := ix.Query("NOT write_on_end")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []store.TraceID{id(1)}) {
		t.Fatalf("NOT query = %v, want [%s]", got, id(1))
	}
	ix.compactMin = 1
	ix.Add(id(3), set())
	ix.waitCompact()
	got, err = ix.Query("NOT write_on_end")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("after compaction NOT query = %v, want 2 ids", got)
	}
}

func TestMergeSortedLoserTree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{2, 8, 9, 32, 100} {
		lists := make([][]string, k)
		want := map[string]bool{}
		for i := range lists {
			n := rng.Intn(50)
			for j := 0; j < n; j++ {
				s := fmt.Sprintf("%04x", rng.Intn(4096))
				lists[i] = append(lists[i], s)
				want[s] = true
			}
			sort.Strings(lists[i])
		}
		exp := make([]string, 0, len(want))
		for s := range want {
			exp = append(exp, s)
		}
		sort.Strings(exp)
		got := MergeSorted(lists...)
		if len(exp) == 0 {
			if got != nil {
				t.Fatalf("k=%d: empty merge = %v, want nil", k, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("k=%d: merge mismatch: got %d ids want %d", k, len(got), len(exp))
		}
		// The Into form must reuse its destination.
		buf := make([]string, 0, 8)
		got2 := MergeSortedInto(buf, lists...)
		if !reflect.DeepEqual(got2, exp) {
			t.Fatalf("k=%d: MergeSortedInto mismatch", k)
		}
	}
}

func TestMergeSortedUnsortedFallback(t *testing.T) {
	// 9 lists forces the loser tree; one unsorted input must still
	// produce a sorted deduplicated union.
	lists := make([][]string, 9)
	for i := range lists {
		lists[i] = []string{"b", "c"}
	}
	lists[4] = []string{"z", "a", "z"}
	got := MergeSorted(lists...)
	want := []string{"a", "b", "c", "z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback merge = %v, want %v", got, want)
	}
}
