package index

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

func id(n int) store.TraceID {
	return store.TraceID(fmt.Sprintf("%064x", n))
}

func set(cats ...category.Category) category.Set { return category.NewSet(cats...) }

func TestIndexAddQuery(t *testing.T) {
	ix := New()
	ix.Add(id(1), set("write_periodic_minute", "write_on_end", "metadata_high_spike"))
	ix.Add(id(2), set("write_periodic_minute", "metadata_insignificant_load"))
	ix.Add(id(3), set("read_periodic_minute", "write_on_end", "metadata_insignificant_load"))
	ix.Add(id(4), set("read_on_start"))

	cases := []struct {
		q    string
		want []store.TraceID
	}{
		{"write_periodic_minute", []store.TraceID{id(1), id(2)}},
		// Substring terms expand over the closed category set.
		{"periodic_minute", []store.TraceID{id(1), id(2), id(3)}},
		{"periodic_minute AND write_on_end", []store.TraceID{id(1), id(3)}},
		// The issue's example: juxtaposed NOT means AND NOT.
		{"periodic_minute AND write_on_end NOT insignificant_load", []store.TraceID{id(1)}},
		{"write_on_end OR read_on_start", []store.TraceID{id(1), id(3), id(4)}},
		// Bare juxtaposition is AND.
		{"periodic_minute metadata_high_spike", []store.TraceID{id(1)}},
		{"NOT periodic_minute", []store.TraceID{id(4)}},
		{"(write_on_end OR read_on_start) AND NOT metadata_high_spike", []store.TraceID{id(3), id(4)}},
		{"read_periodic_minute OR (write_periodic_minute NOT write_on_end)", []store.TraceID{id(2), id(3)}},
	}
	for _, tc := range cases {
		got, err := ix.Query(tc.q)
		if err != nil {
			t.Fatalf("Query(%q): %v", tc.q, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Query(%q) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestIndexQueryErrors(t *testing.T) {
	ix := New()
	ix.Add(id(1), set("read_on_start"))
	for _, q := range []string{
		"",
		"(read_on_start",
		"read_on_start)",
		"AND read_on_start",
		"read_on_start AND",
		"no_such_category_xyz",
		"NOT",
	} {
		if _, err := ix.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
	// parseQuery mirrors Query's validation without evaluating.
	if _, err := parseQuery("read_on_start AND (write_on_end OR read_steady)"); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if _, err := parseQuery("((("); err == nil {
		t.Fatal("malformed query accepted")
	}
}

func TestIndexReAddReplacesPostings(t *testing.T) {
	ix := New()
	ix.Add(id(1), set("read_on_start", "metadata_high_spike"))
	ix.Add(id(1), set("write_on_end")) // re-categorized under a new config
	if got := ix.Count(category.Category("read_on_start")); got != 0 {
		t.Fatalf("stale posting survived re-add: count=%d", got)
	}
	if got := ix.Count(category.Category("write_on_end")); got != 1 {
		t.Fatalf("new posting missing: count=%d", got)
	}
	ix.Remove(id(1))
	if ix.Len() != 0 {
		t.Fatal("Remove left the trace indexed")
	}
	if got, _ := ix.Query("write_on_end"); len(got) != 0 {
		t.Fatalf("Remove left postings: %v", got)
	}
}

func TestIndexAxisCounts(t *testing.T) {
	ix := New()
	ix.Add(id(1), set("write_on_end", "write_periodic", "metadata_high_spike"))
	ix.Add(id(2), set("write_on_end", "metadata_insignificant_load"))
	ac := ix.AxisCounts()
	if got := ac["temporality"]; len(got) != 1 || got[0].Category != "write_on_end" || got[0].Count != 2 {
		t.Fatalf("temporality counts = %v", got)
	}
	if got := ac["periodicity"]; len(got) != 1 || got[0].Count != 1 {
		t.Fatalf("periodicity counts = %v", got)
	}
	if got := ac["metadata"]; len(got) != 2 {
		t.Fatalf("metadata counts = %v", got)
	}
}

func TestIndexRebuildFromStore(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := core.DefaultConfig()
	fp := cfg.Fingerprint()
	var want []store.TraceID
	for i := 0; i < 6; i++ {
		j := &darshan.Job{
			JobID: uint64(i + 1), UID: 1, User: "u", Exe: fmt.Sprintf("/a%d", i),
			NProcs: 4, Start: 0, End: 100, Runtime: 100,
			Records: []darshan.FileRecord{{
				Module: darshan.ModPOSIX, Path: "/f", Rank: -1,
				C: darshan.Counters{
					Opens: 1, Closes: 1, Writes: 10, BytesWritten: 200 << 20,
					OpenStart: 1, OpenEnd: 2, WriteStart: 90, WriteEnd: 99,
					CloseStart: 99, CloseEnd: 100,
				},
			}},
		}
		tid, _, err := s.PutTrace(j)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Categorize(j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult(tid, fp, res); err != nil {
			t.Fatal(err)
		}
		want = append(want, tid)
	}
	ix := New()
	n, err := ix.Rebuild(s, fp)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || ix.Len() != 6 {
		t.Fatalf("Rebuild indexed %d/%d traces, want 6", n, ix.Len())
	}
	// All test jobs write at the very end of the run: write_on_end.
	got, err := ix.Query("write_on_end")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		first, _ := ix.Set(want[0])
		t.Fatalf("query after rebuild = %d traces, want 6 (cats of first: %v)", len(got), first)
	}
}

func TestIndexConcurrent(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := g*50 + i
				ix.Add(id(n), set("write_on_end", "metadata_high_spike"))
				if _, err := ix.Query("write_on_end NOT read_on_start"); err != nil {
					t.Error(err)
					return
				}
				ix.AxisCounts()
			}
		}(g)
	}
	wg.Wait()
	if ix.Len() != 400 {
		t.Fatalf("Len = %d, want 400", ix.Len())
	}
}
