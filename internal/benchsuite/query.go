package benchsuite

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/index"
	"github.com/mosaic-hpc/mosaic/internal/segment"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Query benchmark corpus: one million traces drawn from a fixed pool of
// category profiles. The profile pool keeps setup memory flat (the
// engines never share sets between traces internally), while the per-
// trace profile assignment gives every posting list a realistic skew:
// a handful of dense behavioural categories, a long tail of mid-density
// ones, and one deliberately rare point-query target.
const (
	queryCorpusN    = 1 << 20
	queryProfiles   = 512
	queryCorpusSeed = 77
)

// queryDensity pins per-category probabilities inside a profile;
// categories not listed default to 5%. metadata_high_spike is excluded
// from random assignment entirely and instead forced into exactly two
// profiles below, so the point query stays rare (≈0.4%) by construction
// rather than by luck of the seed.
var queryDensity = map[category.Category]float64{
	"write_on_end":                0.15,
	"read_on_start":               0.08,
	"read_periodic_minute":        0.04,
	"write_periodic_minute":       0.04,
	"metadata_insignificant_load": 0.25,
	"metadata_high_spike":         0,
}

// The pinned query shapes. point hits one rare posting list; and_heavy
// intersects a substring-expanded term with a dense list under a dense
// negation; not_heavy keeps complements live through the whole plan so
// the lazy-NOT algebra (not the materialized universe) is what's
// measured; stats is the cached axis rollup behind /v1/stats.
const (
	queryPoint    = "metadata_high_spike"
	queryAndHeavy = "periodic_minute AND write_on_end AND NOT metadata_insignificant_load"
	queryNotHeavy = "NOT (write_on_end OR read_on_start) NOT metadata_high_spike"
)

// queryEntries lazily builds the shared corpus (IDs are zero-padded hex,
// so they arrive already in lexicographic order).
var queryEntries = sync.OnceValue(func() []index.Entry {
	rng := rand.New(rand.NewSource(queryCorpusSeed))
	all := category.All()
	profiles := make([]category.Set, queryProfiles)
	for i := range profiles {
		s := category.NewSet()
		for _, c := range all {
			p := 0.05
			if d, ok := queryDensity[c]; ok {
				p = d
			}
			if rng.Float64() < p {
				s.Add(c)
			}
		}
		profiles[i] = s
	}
	profiles[0].Add("metadata_high_spike")
	profiles[1].Add("metadata_high_spike")
	entries := make([]index.Entry, queryCorpusN)
	for i := range entries {
		entries[i] = index.Entry{
			ID:   store.TraceID(fmt.Sprintf("%064x", i)),
			Cats: profiles[rng.Intn(queryProfiles)],
		}
	}
	return entries
})

var queryEngine = sync.OnceValue(func() *index.Index {
	ix := index.New()
	ix.Load(queryEntries())
	return ix
})

var queryOracleIx = sync.OnceValue(func() *index.Oracle {
	or := index.NewOracle()
	for _, e := range queryEntries() {
		or.Add(e.ID, e.Cats)
	}
	return or
})

// querier is the surface both engines expose to the pinned benchmarks.
type querier interface {
	QueryIDs(string) ([]string, error)
	AxisCounts() map[string][]index.CategoryCount
}

// QueryBench returns the pinned query benchmark of the given kind
// ("point", "and_heavy", "not_heavy" or "stats") over the 1M-trace
// corpus, running on the posting-list engine or, with oracle set, on
// the map-based reference engine — the pre-rewrite evaluation strategy
// kept as the committed baseline the ≥10× contract is checked against.
func QueryBench(kind string, oracle bool) func(b *testing.B) {
	return func(b *testing.B) {
		var ix querier = queryEngine()
		if oracle {
			ix = queryOracleIx()
		}
		if kind == "stats" {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if axes := ix.AxisCounts(); len(axes) != 3 {
					b.Fatalf("%d axes", len(axes))
				}
			}
			return
		}
		var q string
		switch kind {
		case "point":
			q = queryPoint
		case "and_heavy":
			q = queryAndHeavy
		case "not_heavy":
			q = queryNotHeavy
		default:
			b.Fatalf("unknown query bench kind %q", kind)
		}
		ids, err := ix.QueryIDs(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(ids) == 0 {
			b.Fatalf("query %q matches nothing: corpus drifted", q)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.QueryIDs(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// queryPageLimit is the page the paged benchmarks ask for — the limit a
// dashboard sends.
const queryPageLimit = 100

// QueryPageBench returns the pinned paged-query benchmark of the given
// kind ("and_heavy" or "not_heavy") over the 1M-trace corpus: the same
// expressions as QueryBench, answered as count plus first page into a
// reused list, the way /v1/query?limit=100 asks. Its B/op is the
// read side of ROADMAP item 4: a page must cost O(page), so the 700k
// matches of not_heavy may not show in it.
func QueryPageBench(kind string) func(b *testing.B) {
	return func(b *testing.B) {
		q := map[string]string{"and_heavy": queryAndHeavy, "not_heavy": queryNotHeavy}[kind]
		if q == "" {
			b.Fatalf("unknown paged query bench kind %q", kind)
		}
		ix := queryEngine()
		page, err := ix.QueryPage(nil, q, queryPageLimit)
		if err != nil {
			b.Fatal(err)
		}
		if len(page.IDs) != queryPageLimit || page.Count <= queryPageLimit {
			b.Fatalf("query %q: %d matches, %d returned: corpus drifted", q, page.Count, len(page.IDs))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if page, err = ix.QueryPage(page.IDs[:0], q, queryPageLimit); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchResult fills one stored result the way production categorization
// does: chunk volumes, periodic groups, rate statistics and generator
// truth all ride along with the labels. Rebuild streams past everything
// but the labels; the payload size is what makes that skip matter.
func benchResult(i int, labels []string) *core.Result {
	res := &core.Result{
		JobID:   uint64(900000 + i),
		App:     "cam6.exe",
		User:    fmt.Sprintf("u%03d", i%97),
		NProcs:  512,
		Runtime: 3600,
		Labels:  labels,
		Truth: map[string]string{
			"archetype": "checkpointer-minute",
			"host":      fmt.Sprintf("h%04d", i%800),
			"lib_ver":   "3.4.4",
		},
	}
	for d, rep := range []*core.DirectionReport{&res.Read, &res.Write} {
		rep.TotalBytes = int64(1<<30 + i*4096 + d)
		rep.RawOps = 4000 + i%512
		rep.MergedOps = 60 + i%32
		rep.TemporalS = "steady"
		rep.BusyTime = 420.5
		rep.Chunks = make([]float64, 48)
		for k := range rep.Chunks {
			rep.Chunks[k] = float64((i+k*7919)%100000) / 3.0
		}
		rep.Groups = []segment.Group{{
			Count: 60, Period: 60.2, MeanBytes: 1 << 24, BusyRatio: 0.31,
			Segments: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		}}
	}
	res.Meta = core.MetaReport{TotalOps: 120000, PeakRate: 840, MeanRate: 33.3, SpikeCount: 12, HighSpikes: 2}
	return res
}

// QueryRebuild measures re-indexing from a 20k-result store: the
// engine's sequential labels-only scan versus the oracle's original
// random-read full-decode path.
func QueryRebuild(oracle bool) func(b *testing.B) {
	return func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		const fp = "cfg-benchquery000000"
		entries := queryEntries()[:20000]
		for i, e := range entries {
			if err := st.PutResult(e.ID, fp, benchResult(i, e.Cats.Strings())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var n int
			var err error
			if oracle {
				n, err = index.NewOracle().Rebuild(st, fp)
			} else {
				n, err = index.New().Rebuild(st, fp)
			}
			if err != nil || n != len(entries) {
				b.Fatalf("rebuilt %d traces (want %d), err=%v", n, len(entries), err)
			}
		}
	}
}

// QueryMergeSorted measures the scatter-gather reduce: merging 32k
// sorted trace IDs split across k per-peer lists into one deduplicated
// result, with the destination reused the way the serve tier's pool
// does. k=2 and k=8 take the linear two-pointer path; k=32 takes the
// loser tree.
func QueryMergeSorted(k int) func(b *testing.B) {
	return func(b *testing.B) {
		const total = 1 << 15
		rng := rand.New(rand.NewSource(queryCorpusSeed))
		lists := make([][]string, k)
		for i := 0; i < total; i++ {
			p := rng.Intn(k)
			lists[p] = append(lists[p], fmt.Sprintf("%064x", rng.Intn(1<<30)))
		}
		for _, l := range lists {
			sort.Strings(l)
		}
		buf := make([]string, 0, total)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = index.MergeSortedInto(buf[:0], lists...)
			if len(buf) == 0 {
				b.Fatal("empty merge")
			}
		}
	}
}
