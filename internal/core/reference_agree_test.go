package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// refDivergence is one row of "Where this implementation departs from the
// paper's text" (EXPERIMENTS.md): the departure, its name, and the title
// of the DESIGN §5 decision behind it.
type refDivergence struct {
	dep    refDep
	name   string
	design string
}

var refDivergences = []refDivergence{
	{depClip, "clip", "Operations are clipped to the run"},
	{depMergeAtEqual, "merge-at-equal", "A gap equal to a merge threshold is negligible"},
	{depWeakDominance, "weak-dominance", "Every significant direction gets a temporality"},
	{depBothEnds, "both-ends", "Every significant direction gets a temporality"},
	{depSignificantOnly, "significant-only", "Only significant directions are characterized"},
	{depModeMerge, "mode-merge", "Mean Shift modes merge at half a bandwidth"},
	{depCoverage, "coverage", "A periodic group spans half the run"},
	{depStatRequests, "stat-requests", "Metadata requests are OPEN, CLOSE, SEEK and STAT"},
	{depRankGate, "rank-gate", "Fewer requests than ranks ends the metadata axis"},
	{depNoPattern, "no-pattern", "Metadata traffic with no pattern is an insignificant load"},
	{depCoalesce, "coalesce", "Rate bins coalesce past 2^21 seconds"},
}

// TestReferenceAgrees holds Categorize to the categorizer written from
// the paper's text (reference_test.go) on every valid run of the
// 300-application corpus. A run agrees with the paper taken literally, or
// the smallest set of named departures that makes the reference equal to
// Categorize, value for value, is what tells them apart; a run no set of
// departures accounts for fails.
func TestReferenceAgrees(t *testing.T) {
	p := gen.DefaultProfile()
	p.Apps = 300
	cfg := DefaultConfig()
	var runs, literal int
	byRow := make([]int, len(refDivergences))
	gen.Plan(p).Each(func(r gen.Run) bool {
		j := r.Job
		if darshan.Validate(j) != nil {
			return true
		}
		for _, rec := range j.Records {
			if len(rec.DXTReads)+len(rec.DXTWrites) > 0 {
				t.Fatalf("job %d carries DXT segments, which the paper's corpus had none of", j.JobID)
			}
		}
		got, err := Categorize(j, cfg)
		if err != nil {
			t.Fatalf("job %d: %v", j.JobID, err)
		}
		runs++
		if refDiff(got, refCategorize(j, 0)) == "" {
			literal++
			return true
		}
		if d := refDiff(got, refCategorize(j, depAll)); d != "" {
			t.Errorf("job %d (%s): no departure accounts for %s", j.JobID, r.App.Archetype.Name, d)
			return true
		}
		need := refDep(depAll)
		for _, row := range refDivergences {
			if refDiff(got, refCategorize(j, need&^row.dep)) == "" {
				need &^= row.dep
			}
		}
		for i, row := range refDivergences {
			if need&row.dep != 0 {
				byRow[i]++
			}
		}
		return true
	})
	t.Logf("%d valid runs, %d equal to the paper taken literally", runs, literal)
	for i, row := range refDivergences {
		t.Logf("  %-17s %6d runs  (DESIGN §5: %s)", row.name, byRow[i], row.design)
	}
	if runs < 1000 || literal == 0 {
		t.Fatalf("%d runs, %d literal: the corpus no longer exercises the reference", runs, literal)
	}
}

// TestReferenceDivergencesAreDocumented: every departure names a decision
// DESIGN §5 states and is a row of EXPERIMENTS.md's divergence table.
func TestReferenceDivergencesAreDocumented(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design, experiments := read("DESIGN.md"), read("EXPERIMENTS.md")
	sec5 := design[strings.Index(design, "## 5. Key design decisions"):strings.Index(design, "## 6. ")]
	_, table, ok := strings.Cut(experiments, "## Where this implementation departs from the paper's text")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no divergence table")
	}
	var all refDep
	for _, row := range refDivergences {
		all |= row.dep
		if !strings.Contains(sec5, "**"+row.design+"**") {
			t.Errorf("%s: DESIGN §5 has no decision **%s**", row.name, row.design)
		}
		if !strings.Contains(table, "| `"+row.name+"` |") {
			t.Errorf("%s: no row in EXPERIMENTS.md's divergence table", row.name)
		}
	}
	if all != depAll {
		t.Errorf("departures %b have no row", depAll&^all)
	}
}

// FuzzCategorizeReference: any trace the validator accepts is categorized
// as the reference does under every departure, value for value. Records
// come nine bytes each: a start on a grid of the runtime (or one of its
// edges, ±0), a duration, a byte count up to the int64 range, metadata
// counts and the direction. Fewer than 64 operations per direction keep
// Mean Shift on the dense scan, whose sums the reference's match bit for
// bit.
func FuzzCategorizeReference(f *testing.F) {
	rec := func(start, dur, size, opens, closes, seeks, stats, dir byte) []byte {
		return []byte{start, dur, size, opens, closes, seeks, stats, dir, 0}
	}
	cat := func(rs ...[]byte) []byte {
		return []byte(strings.Join(func() []string {
			var s []string
			for _, r := range rs {
				s = append(s, string(r))
			}
			return s
		}(), ""))
	}
	f.Add(3600.0, int32(4), cat(rec(8, 1, 200, 4, 4, 0, 0, 1), rec(8, 1, 200, 4, 4, 0, 0, 1), rec(8, 2, 255, 1, 1, 1, 1, 0)))
	f.Add(1000.0, int32(1), cat(rec(0, 0, 255, 255, 0, 0, 0, 1), rec(128, 0, 254, 0, 255, 0, 0, 3), rec(255, 0, 255, 9, 9, 9, 9, 1)))
	f.Add(0.0, int32(1), cat(rec(0, 0, 1, 1, 1, 0, 0, 1)))
	f.Add(86400.0*40, int32(2), cat(rec(1, 4, 250, 200, 200, 0, 0, 1), rec(40, 4, 250, 200, 200, 0, 0, 1), rec(80, 4, 250, 200, 200, 0, 0, 1)))
	// A write every 20/255 of the run, busy 27 % of each period: just
	// above the busy-time split.
	var train [][]byte
	for k := byte(1); k <= 11; k++ {
		train = append(train, rec(20*k, 22, 200, 3, 3, 0, 0, 1))
	}
	f.Add(7200.0, int32(8), cat(train...))
	f.Fuzz(func(t *testing.T, runtime float64, nprocs int32, data []byte) {
		j := &darshan.Job{JobID: 1, User: "u", Exe: "fuzz", NProcs: nprocs, Runtime: runtime, End: int64(min(max(runtime, 0), 1e15))}
		for ; len(data) >= 9 && len(j.Records) < 60; data = data[9:] {
			start := runtime * float64(data[0]) / 255
			if data[0] == 1 {
				start = math.Copysign(0, -1)
			}
			dur := runtime * float64(data[1]) / 1024
			size := int64(binary.LittleEndian.Uint16([]byte{data[2], data[2]})) * int64(data[2]) << (data[2] / 4)
			if data[2] == 255 {
				size = math.MaxInt64
			}
			c := darshan.Counters{
				Opens: int64(data[3]) * 3, Closes: int64(data[4]) * 3, Seeks: int64(data[5]), Stats: int64(data[6]),
				OpenStart: start, OpenEnd: start, CloseStart: start + dur, CloseEnd: start + dur,
			}
			if data[7]&1 != 0 {
				c.Writes, c.BytesWritten, c.WriteStart, c.WriteEnd = 1, size, start, start+dur
			}
			if data[7]&2 != 0 {
				c.Reads, c.BytesRead, c.ReadStart, c.ReadEnd = 1, size, start, start+dur
			}
			j.Records = append(j.Records, darshan.FileRecord{Module: darshan.ModPOSIX, Path: "/f", C: c})
		}
		if darshan.Validate(j) != nil {
			return // step 1 evicts it; the reference starts at step 2
		}
		got, err := Categorize(j, DefaultConfig())
		if err != nil {
			t.Fatalf("valid trace: %v", err)
		}
		if d := refDiff(got, refCategorize(j, depAll)); d != "" {
			t.Fatalf("runtime %g nprocs %d: %s", runtime, nprocs, d)
		}
	})
}

// checkMetaAgainstOracle classifies j through rates and fails the test
// unless categories and every reported float, bit for bit, are the
// reference's under every departure, and the table is handed back empty.
func checkMetaAgainstOracle(t testing.TB, j *darshan.Job, cfg *Config, rates *rateTable) (category.Set, MetaReport) {
	t.Helper()
	var cats, wantCats category.Set
	rep := classifyMetadata(j, cfg, rates, &cats)
	want := refMetadata(j, depAll, &wantCats)
	if !cats.Equal(wantCats) {
		t.Fatalf("job %d: categories %v, reference %v", j.JobID, cats, wantCats)
	}
	if rep.TotalOps != want.TotalOps || rep.SpikeCount != want.SpikeCount || rep.HighSpikes != want.HighSpikes ||
		math.Float64bits(rep.PeakRate) != math.Float64bits(want.PeakRate) ||
		math.Float64bits(rep.MeanRate) != math.Float64bits(want.MeanRate) {
		t.Fatalf("job %d: report %+v, reference %+v", j.JobID, rep, want)
	}
	if len(rates.cells) != 0 {
		t.Fatalf("job %d: %d cells left in the table", j.JobID, len(rates.cells))
	}
	for h, at := range rates.index {
		if at != 0 {
			t.Fatalf("job %d: index slot %d left occupied", j.JobID, h)
		}
	}
	return cats, rep
}

// validatorDamage earns each verdict darshan.Validate can give.
var validatorDamage = []func(*darshan.Job){
	func(j *darshan.Job) { j.NProcs = 0 },
	func(j *darshan.Job) { j.Records[0].C.OpenStart = math.NaN() },
	func(j *darshan.Job) {
		c := &j.Records[0].C
		c.Writes, c.BytesWritten, c.WriteStart, c.WriteEnd = 1, 1, 1, 2
		c.Closes, c.CloseStart, c.CloseEnd = 1, 0, 1
	},
	func(j *darshan.Job) {
		c := &j.Records[0].C
		c.Opens, c.OpenStart, c.OpenEnd = 1, 0, j.Runtime+100
	},
	func(j *darshan.Job) { j.Records[0].C.Stats = -1 },
	func(j *darshan.Job) {
		c := &j.Records[0].C
		c.Opens, c.OpenStart, c.OpenEnd = 1, 2, 1
	},
	func(j *darshan.Job) { j.Records[0].Module = 77 },
}

// TestMetadataMatchesOracle: one rate table, never replaced, serves every
// generator archetype intact, damaged in each way the validator knows and
// corrupted in each way the generator knows, and answers as the
// reference's dense histogram does. Unlike the merge kernel the detector
// has no contract to shelter behind — a NaN timestamp lands in the same
// bin on both sides.
func TestMetadataMatchesOracle(t *testing.T) {
	cfg := DefaultConfig()
	rates := new(rateTable)
	rng := rand.New(rand.NewSource(17))
	archetypes := append(gen.DefaultArchetypes(), gen.DXTCheckpointerArchetype(false), gen.DXTCheckpointerArchetype(true))
	for _, arch := range archetypes {
		t.Run(arch.Name, func(t *testing.T) {
			build := func() *darshan.Job {
				p := arch.Params(rng)
				b := gen.NewBuilder(rng, "u1", arch.Exe, 1, p.Ranks, p.RuntimeBase)
				arch.Build(b, p)
				return b.Job()
			}
			checkMetaAgainstOracle(t, build(), &cfg, rates)
			for _, damage := range validatorDamage {
				j := build()
				damage(j)
				checkMetaAgainstOracle(t, j, &cfg, rates)
			}
			for seen := map[int]bool{}; len(seen) < gen.CorruptKinds; {
				j := build()
				seen[gen.Corrupt(j, rng)] = true
				checkMetaAgainstOracle(t, j, &cfg, rates)
			}
		})
	}
}

// TestMetadataMatchesOracleAtTheEdges covers what no generated trace
// reaches: no runtime at all, coalesced bins whose quotients add up
// differently in another order, and request counts past 2^53, where even
// whole numbers stop adding exactly.
func TestMetadataMatchesOracleAtTheEdges(t *testing.T) {
	cfg := DefaultConfig()
	rates := new(rateTable)
	rng := rand.New(rand.NewSource(53))
	scattered := func(n int, span float64, maxCount int64) []darshan.MetaEvent {
		evs := make([]darshan.MetaEvent, n)
		for i := range evs {
			evs[i] = darshan.MetaEvent{Time: (rng.Float64()*1.2 - 0.1) * span, Count: 1 + rng.Int63n(maxCount)}
		}
		return evs
	}
	long := float64(maxRateBins) * 3.7
	cases := map[string]*darshan.Job{
		"zero runtime":     metaJob(1, 0, []darshan.MetaEvent{{Time: 0, Count: 300}, {Time: 4, Count: 7}}),
		"negative runtime": metaJob(1, -1, scattered(20, 10, 400)),
		"sub-second":       metaJob(1, 0.5, scattered(20, 0.5, 400)),
		"coalesced":        metaJob(4, long, scattered(3000, long, 5000)),
		"coalesced, dense": metaJob(4, long, scattered(3000, 40, 5000)),
		"past 2^53":        metaJob(4, 5000, scattered(500, 5000, 1<<53)),
		"int64 wraps": metaJob(1, 5000, append(scattered(300, 5000, 9),
			darshan.MetaEvent{Time: 10, Count: math.MaxInt64}, darshan.MetaEvent{Time: 20, Count: math.MaxInt64}, darshan.MetaEvent{Time: 30, Count: 1 << 40})),
		"one huge burst": metaJob(4, 5000, append(scattered(300, 5000, 9), darshan.MetaEvent{Time: 77, Count: 1 << 62})),
	}
	for name, j := range cases {
		t.Run(name, func(t *testing.T) {
			if j.TotalMetaOps() < int64(j.NProcs) {
				t.Fatal("case stops at the rank-count rule, before any rate is counted")
			}
			checkMetaAgainstOracle(t, j, &cfg, rates)
		})
	}
}

// refDiff describes how two results differ, or is "" when they are equal
// value for value (floats compared by their shortest decimal form, which
// tells every bit pattern apart but NaN payloads). Spatial is not
// compared: it is a DXT-only extension of the paper's categories.
func refDiff(got, want *Result) string {
	g, w := *got, *want
	g.Read.Spatial, g.Write.Spatial, w.Read.Spatial, w.Write.Spatial = 0, 0, 0, 0
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"labels", g.Labels, w.Labels},
		{"read", g.Read, w.Read},
		{"write", g.Write, w.Write},
		{"metadata", g.Meta, w.Meta},
		{"header", []any{g.JobID, g.App, g.User, g.NProcs, g.Runtime, g.Truth, g.Categories}, []any{w.JobID, w.App, w.User, w.NProcs, w.Runtime, w.Truth, w.Categories}},
	} {
		if a, b := fmt.Sprintf("%+v", f.a), fmt.Sprintf("%+v", f.b); a != b {
			return fmt.Sprintf("%s: %s, reference %s", f.name, a, b)
		}
	}
	return ""
}
