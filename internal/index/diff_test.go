package index

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/jsontext"
	"github.com/mosaic-hpc/mosaic/internal/store"
)

// Differential tests: the posting-list engine and the map-based
// Oracle must give byte-identical answers on every query, plus
// identical Len/Count/per-trace set/AxisCounts views, across archetype
// corpora, random corpora with churn, and store rebuilds.

// diffQueries is the query battery: every operator, lazy-NOT shapes,
// nesting, juxtaposition, substring expansion, and degenerate forms.
var diffQueries = []string{
	"write_on_end",
	"read_on_start",
	"periodic_minute",
	"metadata_high_spike",
	"write_on_end AND metadata_high_spike",
	"periodic_minute AND write_on_end",
	"write_on_end OR read_on_start",
	"write_on_end read_on_start",
	"write_on_end NOT metadata_high_spike",
	"NOT write_on_end",
	"NOT NOT write_on_end",
	"NOT (write_on_end OR read_on_start)",
	"(write_on_end OR read_on_start) AND NOT metadata_high_spike",
	"NOT write_on_end AND NOT read_on_start",
	"NOT write_on_end OR NOT read_on_start",
	"write_on_end OR NOT write_on_end",
	"write_on_end AND NOT write_on_end",
	"(periodic_minute OR periodic_hour) AND (write_on_end NOT metadata_insignificant_load)",
	"read_periodic_minute OR (write_periodic_minute NOT write_on_end)",
	"metadata AND periodic",
	"busy",
	"NOT busy",
	"write AND NOT read",
	"(NOT (read_on_start AND write_on_end)) OR metadata_high_spike",
	"steady OR spike NOT single",
}

// checkAgree asserts every observable view of the two engines matches.
func checkAgree(t *testing.T, ix *Index, or *Oracle, queries []string) {
	t.Helper()
	if got, want := ix.Len(), or.Len(); got != want {
		t.Fatalf("Len: engine=%d oracle=%d", got, want)
	}
	for _, c := range category.All() {
		if got, want := ix.Count(c), or.Count(c); got != want {
			t.Fatalf("Count(%s): engine=%d oracle=%d", c, got, want)
		}
	}
	if got, want := ix.AxisCounts(), or.AxisCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AxisCounts:\nengine=%v\noracle=%v", got, want)
	}
	// Equal Len and every trace of the oracle's found: the same traces,
	// each under the same set.
	for tid, want := range or.byTrace {
		if got, ok := ix.Set(tid); !ok || !slices.Equal(got.Sorted(), want) {
			t.Fatalf("Set(%s): engine=%v (indexed %v) oracle=%v", tid, got, ok, want)
		}
	}
	for _, q := range queries {
		got, gerr := ix.Query(q)
		want, werr := or.Query(q)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Query(%q): engine err=%v oracle err=%v", q, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%q): engine %d ids, oracle %d ids\nengine=%.6v\noracle=%.6v",
				q, len(got), len(want), got, want)
		}
		checkPages(t, ix, q, want)
	}
}

// testClasses and testClassOf are the placement the classified runs of
// the differential tests hand Classify: a pure function of the ID that
// spreads neighbours in the dictionary over every class.
const testClasses = 5

func testClassOf(id store.TraceID) uint16 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return uint16(h % testClasses)
}

// checkPages asserts the paged core equals the whole answer cut
// afterwards — count and IDs — at every limit that is an edge for this
// answer, that it appends to what it is handed, that it only vouches for
// IDs that need no escaping, and that ByClass is the whole answer split
// by class on a classified index and nil on any other.
func checkPages(t *testing.T, ix *Index, q string, want []store.TraceID) {
	t.Helper()
	n := len(want)
	var byClass []int
	if ix.classes > 0 {
		byClass = make([]int, ix.classes)
		for _, id := range want {
			byClass[ix.classOf(id)]++
		}
	}
	for _, limit := range []int{-1, 0, 1, 2, 100, n - 1, n, n + 1} {
		page, err := ix.QueryPage([]string{"kept"}, q, limit)
		if err != nil {
			t.Fatalf("QueryPage(%q, %d): %v", q, limit, err)
		}
		cut := n
		if limit >= 0 && limit < n {
			cut = limit
		}
		if !reflect.DeepEqual(page.ByClass, byClass) {
			t.Fatalf("QueryPage(%q, %d): by class %v, want %v", q, limit, page.ByClass, byClass)
		}
		if page.Count != n || len(page.IDs) != 1+cut || page.IDs[0] != "kept" {
			t.Fatalf("QueryPage(%q, %d): count %d with %d ids after %q, want count %d with %d ids after \"kept\"",
				q, limit, page.Count, len(page.IDs)-1, page.IDs[0], n, cut)
		}
		for i, id := range page.IDs[1:] {
			if id != string(want[i]) {
				t.Fatalf("QueryPage(%q, %d): id %d is %q, want %q", q, limit, i, id, want[i])
			}
			if page.Plain && !jsontext.Plain(id) {
				t.Fatalf("QueryPage(%q, %d): vouched for %q", q, limit, id)
			}
		}
	}
}

// TestDifferentialArchetypes runs real categorization over every
// default archetype and checks the engines agree on the resulting
// corpus — the all-archetype acceptance gate.
func TestDifferentialArchetypes(t *testing.T) {
	cfg := core.DefaultConfig()
	ix, or := New(), NewOracle()
	n := 0
	for ai, arch := range gen.DefaultArchetypes() {
		for run := 0; run < 3; run++ {
			rng := rand.New(rand.NewSource(int64(ai*31 + run)))
			p := arch.Params(rng)
			b := gen.NewBuilder(rng, "u", arch.Exe, uint64(n+1), p.Ranks, p.RuntimeBase)
			arch.Build(b, p)
			res, err := core.Categorize(b.Job(), cfg)
			if err != nil {
				t.Fatalf("categorize %s run %d: %v", arch.Name, run, err)
			}
			tid := id(n)
			ix.Add(tid, res.Categories)
			or.Add(tid, res.Categories)
			if got, ok := ix.Set(tid); !ok || got != res.Categories {
				t.Fatalf("Set(%s): engine=%v (indexed %v), added %v", tid, got, ok, res.Categories)
			}
			n++
		}
	}
	checkAgree(t, ix, or, diffQueries)
}

// randomCorpus drives both engines through a deterministic mutation
// history: adds with random category sets, plus removes and re-adds
// of earlier traces so the delta log sees tombstones and overrides.
func randomCorpus(seed int64, n int, ix *Index, or *Oracle) {
	rng := rand.New(rand.NewSource(seed))
	all := category.All()
	randSet := func() category.Set {
		s := category.NewSet()
		for _, c := range all {
			if rng.Intn(5) == 0 {
				s.Add(c)
			}
		}
		return s
	}
	for i := 0; i < n; i++ {
		tid := id(i)
		s := randSet()
		ix.Add(tid, s)
		or.Add(tid, s)
		switch rng.Intn(8) {
		case 0: // remove an earlier trace
			victim := id(rng.Intn(i + 1))
			ix.Remove(victim)
			or.Remove(victim)
		case 1: // re-categorize an earlier trace
			victim := id(rng.Intn(i + 1))
			s2 := randSet()
			ix.Add(victim, s2)
			or.Add(victim, s2)
		}
	}
}

// skewedSets draws n category sets in which every category's
// cardinality falls in one of the classes the posting size rule
// (32·card ≥ n) tells apart: absent, one trace, well below the rule,
// on either side of it, half the corpus, every trace. randomCorpus and
// churn give every category a density of 1/4–1/6, which the rule turns
// into a bitmap every time; these are what put lists, and lists beside
// bitmaps, under the differential checks.
func skewedSets(rng *rand.Rand, n int) []category.Set {
	sets := make([]category.Set, n)
	for i := range sets {
		sets[i] = category.NewSet()
	}
	for _, c := range category.All() {
		card := [...]int{0, 1, n / 64, n/32 - 1, n / 32, n/32 + 1, n / 2, n}[rng.Intn(8)]
		card = max(0, min(card, n))
		for _, i := range rng.Perm(n)[:card] {
			sets[i].Add(c)
		}
	}
	return sets
}

// forms counts a generation's non-empty postings by representation.
func forms(g *generation) (lists, bitmaps int) {
	for cid, p := range g.postings {
		switch {
		case g.card[cid] == 0:
		case p.dense:
			bitmaps++
		default:
			lists++
		}
	}
	return lists, bitmaps
}

// TestDifferentialSkewed runs the battery over corpora holding both
// posting forms: as one loaded generation, under an unfolded delta of
// overrides, tombstones and inserts, and after folding it.
func TestDifferentialSkewed(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(3000)
		ix, or := New(), NewOracle()
		ix.compactMin = 1 << 30
		if seed%2 == 1 {
			ix.Classify(testClasses, testClassOf)
		}
		items := make([]Entry, n)
		for i, s := range skewedSets(rng, n) {
			items[i] = Entry{ID: id(2 * i), Cats: s}
			or.Add(id(2*i), s)
		}
		ix.Load(items)
		g := ix.snap.Load().gen
		for cid, p := range g.postings {
			if p.dense != denseIsSmaller(g.card[cid], n) || p.count() != g.card[cid] {
				t.Fatalf("seed %d: posting %d of %d/%d traces: dense=%v, count %d",
					seed, cid, g.card[cid], n, p.dense, p.count())
			}
		}
		lists, bitmaps := forms(g)
		if lists == 0 || bitmaps == 0 {
			t.Fatalf("seed %d: %d lists and %d bitmaps; the corpus is meant to hold both", seed, lists, bitmaps)
		}
		var bytes int64
		for _, card := range g.card {
			if denseIsSmaller(card, n) {
				bytes += int64(8 * wordsFor(n))
			} else {
				bytes += int64(4 * card)
			}
		}
		if st, want := ix.Stats(), (Stats{GenerationTraces: n, PostingBytes: bytes, BitmapPostings: bitmaps}); st != want {
			t.Fatalf("seed %d: Stats = %+v, want %+v", seed, st, want)
		}
		checkAgree(t, ix, or, diffQueries)

		delta := skewedSets(rng, 120)
		for i, s := range delta {
			tid := id(rng.Intn(2*n + 2)) // odd IDs are new, 2n+1 sorts after every ordinal
			if i%5 == 0 {
				ix.Remove(tid)
				or.Remove(tid)
				continue
			}
			ix.Add(tid, s)
			or.Add(tid, s)
		}
		if st := ix.Stats(); ix.snap.Load().gen != g || st.GenerationTraces != n || st.DeltaOps == 0 {
			t.Fatalf("seed %d: the delta was folded early: %+v", seed, st)
		}
		checkAgree(t, ix, or, diffQueries)
		ix.compactOnce()
		if s := ix.snap.Load(); len(s.ops) != 0 {
			t.Fatalf("seed %d: %d ops left after the fold", seed, len(s.ops))
		}
		checkAgree(t, ix, or, diffQueries)
	}
}

func TestDifferentialRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ix, or := New(), NewOracle()
			ix.compactMin = 64 // force many background folds mid-history
			if seed == 7 {
				ix.Classify(testClasses, testClassOf)
			}
			randomCorpus(seed, 3000, ix, or)
			ix.waitCompact()
			checkAgree(t, ix, or, diffQueries)
		})
	}
}

// TestDifferentialLarge is the scaled-up agreement check. The oracle's
// lazy negation is what keeps its side tractable here: no query below
// materializes a full-universe map.
func TestDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential corpus")
	}
	ix, or := New(), NewOracle()
	randomCorpus(99, 200_000, ix, or)
	ix.waitCompact()
	checkAgree(t, ix, or, diffQueries)
}

// TestDifferentialLoad checks the bulk-load path lands in the same
// state as the incremental path, duplicates resolving latest-wins.
func TestDifferentialLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all := category.All()
	var items []Entry
	or := NewOracle()
	for i := 0; i < 2000; i++ {
		tid := id(rng.Intn(700)) // dense duplicates
		s := category.NewSet()
		for _, c := range all {
			if rng.Intn(4) == 0 {
				s.Add(c)
			}
		}
		items = append(items, Entry{ID: tid, Cats: s})
		or.Add(tid, s)
	}
	ix := New()
	if n := ix.Load(items); n != or.Len() {
		t.Fatalf("Load indexed %d traces, oracle has %d", n, or.Len())
	}
	checkAgree(t, ix, or, diffQueries)
}

// TestDifferentialRebuild compares both engines' store-rebuild paths:
// the engine streams labels sequentially, the oracle random-reads and
// fully decodes — same resulting index either way.
func TestDifferentialRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const fp = "cfg-difftest00000000"
	rng := rand.New(rand.NewSource(11))
	all := category.All()
	for i := 0; i < 300; i++ {
		var labels []string
		for _, c := range all {
			if rng.Intn(4) == 0 {
				labels = append(labels, string(c))
			}
		}
		if err := s.PutResult(id(i), fp, &core.Result{Labels: labels}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 { // supersede: latest write wins in both paths
			if err := s.PutResult(id(i), fp, &core.Result{Labels: labels[:len(labels)/2]}); err != nil {
				t.Fatal(err)
			}
		}
		if i%11 == 0 { // a result under another fingerprint must be invisible
			if err := s.PutResult(id(i), "cfg-otherfp000000000", &core.Result{Labels: []string{"read_on_start"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix, or := New(), NewOracle()
	n1, err := ix.Rebuild(s, fp)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := or.Rebuild(s, fp)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 != 300 {
		t.Fatalf("Rebuild counts: engine=%d oracle=%d want 300", n1, n2)
	}
	checkAgree(t, ix, or, diffQueries)
}

// TestRebuildFromMasksMatchesOracle rebuilds from a store that holds
// every form a result can have on disk — legacy documents an old store
// wrote (testdata of internal/store), served records, a legacy record
// superseded by a served one and the reverse order within the served
// form, sets with the open bit both legacy and served, a record under
// another fingerprint — with the engine, which reads record heads and
// parses nothing it does not have to, and with the oracle, which decodes
// every result. Same index, down to each trace's category set; a label
// outside the taxonomy is in neither, the engine keeping category.Open
// where one was.
func TestRebuildFromMasksMatchesOracle(t *testing.T) {
	const fixture, fp = "../store/testdata/legacy-store", "cfg-legacy-fixture"
	dir := t.TempDir()
	seg, err := os.ReadFile(filepath.Join(fixture, "000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var legacy []store.TraceID
	if err := s.EachResult(fp, func(id store.TraceID, _ *core.Result) bool { legacy = append(legacy, id); return true }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); len(legacy) != 31 || st.LegacyResults != 32 {
		t.Fatalf("fixture: %d results under %s, stats %+v", len(legacy), fp, st)
	}
	rng := rand.New(rand.NewSource(19))
	all := category.All()
	put := func(id store.TraceID, fp string, labels ...string) {
		t.Helper()
		if err := s.PutResult(id, fp, &core.Result{Labels: labels}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		var labels []string
		for _, c := range all {
			if rng.Intn(4) == 0 {
				labels = append(labels, string(c))
			}
		}
		if i%9 == 0 {
			labels = append(labels, "site_custom_label", fmt.Sprintf("site_label_%d", i%2))
		}
		put(id(i), fp, labels...)
		if i%7 == 0 { // superseded within the served form
			put(id(i), fp, labels[:len(labels)/2]...)
		}
	}
	put(legacy[3], fp, "write_on_end", "metadata_high_spike") // a served record over a legacy one
	put(legacy[4], fp)                                        // ... and one with no labels at all
	put(id(500), "cfg-legacy-other", "read_on_start")         // another fingerprint: invisible
	if st := s.Stats(); st.LegacyResults != 30 {
		t.Fatalf("%d legacy results left, want 30", st.LegacyResults)
	}

	ix, or := New(), NewOracle()
	n1, err := ix.Rebuild(s, fp)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := or.Rebuild(s, fp)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 != 231 {
		t.Fatalf("Rebuild counts: engine=%d oracle=%d want 231", n1, n2)
	}
	checkAgree(t, ix, or, diffQueries)
	ids, _ := or.Query("NOT metadata_high_spike OR metadata_high_spike")
	open := 0
	for _, id := range ids {
		if got, _ := ix.Set(id); got&category.Open != 0 {
			open++
		}
	}
	if len(ids) != 231 || open != 20 { // i%9 == 0 less the four superseded by their first half, and the fixture's
		t.Fatalf("%d traces, %d of them open", len(ids), open)
	}
	for _, counts := range ix.AxisCounts() {
		for _, c := range counts {
			if _, ok := c.Category.Bit(); !ok {
				t.Fatalf("AxisCounts lists %q, which is outside the taxonomy", c.Category)
			}
		}
	}
}
