package core_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/explain"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// Pipeline-level invariants, checked over randomly generated valid traces:
// whatever the workload, the categorization must be structurally sound.

// randomValidJob produces an arbitrary valid trace via a random archetype.
func randomValidJob(seed int64) *darshan.Job {
	rng := rand.New(rand.NewSource(seed))
	archs := gen.DefaultArchetypes()
	arch := archs[rng.Intn(len(archs))]
	p := arch.Params(rng)
	b := gen.NewBuilder(rng, "inv", arch.Exe, uint64(seed), p.Ranks, p.RuntimeBase)
	arch.Build(b, p)
	return b.Job()
}

func countTemporal(s category.Set, dir category.Direction) int {
	n := 0
	for _, k := range category.TemporalKinds() {
		if s.Has(category.Temporal(dir, k)) {
			n++
		}
	}
	return n
}

func countMetadata(s category.Set) int {
	n := 0
	for _, c := range []category.Category{
		category.MetaHighSpike, category.MetaMultipleSpikes,
		category.MetaHighDensity, category.MetaInsignificantLoad,
	} {
		if s.Has(c) {
			n++
		}
	}
	return n
}

// Invariant: exactly one temporality label per direction, at least one
// metadata label, insignificant directions carry no periodicity labels,
// and every label belongs to the closed taxonomy.
func TestCategorizeStructuralInvariants(t *testing.T) {
	all := map[category.Category]bool{}
	for _, c := range category.All() {
		all[c] = true
	}
	cfg := core.DefaultConfig()
	f := func(seed int64) bool {
		j := randomValidJob(seed)
		if darshan.Validate(j) != nil {
			return true // generator bug guarded by other tests
		}
		res, err := core.Categorize(j, cfg)
		if err != nil {
			return false
		}
		s := res.Categories
		if countTemporal(s, category.DirRead) != 1 || countTemporal(s, category.DirWrite) != 1 {
			return false
		}
		if countMetadata(s) < 1 {
			return false
		}
		for _, dir := range []category.Direction{category.DirRead, category.DirWrite} {
			if s.Has(category.Temporal(dir, category.Insignificant)) && s.Has(category.Periodic(dir)) {
				return false
			}
		}
		for _, l := range res.Labels {
			if !all[category.Category(l)] {
				return false
			}
		}
		// Labels mirror the set.
		return s&category.Open == 0 && len(res.Labels) == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Invariant: categorization is deterministic.
func TestCategorizeDeterministic(t *testing.T) {
	cfg := core.DefaultConfig()
	for seed := int64(0); seed < 10; seed++ {
		j := randomValidJob(seed)
		a, err := core.Categorize(j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Categorize(j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Categories.Equal(b.Categories) {
			t.Fatalf("seed %d: nondeterministic categories: %v vs %v", seed, a.Categories, b.Categories)
		}
		if a.Write.DominantPeriod() != b.Write.DominantPeriod() {
			t.Fatalf("seed %d: nondeterministic period", seed)
		}
	}
}

// Invariant: categorization must not mutate the input job.
func TestCategorizeDoesNotMutateJob(t *testing.T) {
	j := randomValidJob(42)
	before, err := darshan.MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Categorize(j, core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	after, err := darshan.MarshalBinary(j)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("Categorize mutated the job")
	}
}

// Invariant: merged totals in the report equal the job's raw totals (no
// bytes invented or lost by clipping valid traces).
func TestCategorizeConservesVolumes(t *testing.T) {
	cfg := core.DefaultConfig()
	for seed := int64(0); seed < 30; seed++ {
		j := randomValidJob(seed)
		if darshan.Validate(j) != nil {
			continue
		}
		if j.HasDXT() {
			continue // DXT volumes checked in dxt tests
		}
		res, err := core.Categorize(j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Valid generator traces stay within [0, runtime], so clipping
		// must not drop volume.
		if res.Read.TotalBytes != j.TotalBytesRead() {
			t.Fatalf("seed %d: read bytes %d != %d", seed, res.Read.TotalBytes, j.TotalBytesRead())
		}
		if res.Write.TotalBytes != j.TotalBytesWritten() {
			t.Fatalf("seed %d: write bytes %d != %d", seed, res.Write.TotalBytes, j.TotalBytesWritten())
		}
	}
}

// Metamorphic properties: rewrites of a trace that the paper's definitions
// say cannot matter, and that the sort and the two merge sweeps must
// therefore absorb.

// metamorphicJobs is a spread of valid traces over every archetype, the
// DXT ones included.
func metamorphicJobs(t *testing.T) []*darshan.Job {
	t.Helper()
	var jobs []*darshan.Job
	for _, arch := range goldenArchetypes() {
		for seed := int64(1); seed <= 3; seed++ {
			if j := archetypeJob(arch, seed); darshan.Validate(j) == nil {
				jobs = append(jobs, j)
			}
		}
	}
	if len(jobs) < 30 {
		t.Fatalf("only %d valid traces", len(jobs))
	}
	return jobs
}

// outcomeJSON is everything categorization says about a trace.
func outcomeJSON(t *testing.T, j *darshan.Job) (result, explanation []byte) {
	t.Helper()
	res, exp, err := core.CategorizeExplained(j, core.DefaultConfig(), explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return indented(t, res), indented(t, exp)
}

// Record order and rank labels carry no meaning: operations that tie on
// (start, end) always merge, and a merge is min/max plus integer sums.
func TestRecordOrderAndRanksDoNotMatter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, j := range metamorphicJobs(t) {
		wantRes, wantExp := outcomeJSON(t, j)
		for round := 0; round < 3; round++ {
			m := j.Clone()
			rng.Shuffle(len(m.Records), func(a, b int) { m.Records[a], m.Records[b] = m.Records[b], m.Records[a] })
			for i := range m.Records {
				m.Records[i].Rank = int32(rng.Intn(int(m.NProcs)+1)) - 1
			}
			gotRes, gotExp := outcomeJSON(t, m)
			if !bytes.Equal(gotRes, wantRes) || !bytes.Equal(gotExp, wantExp) {
				t.Fatalf("job %d (%s): shuffled records categorize differently", j.JobID, j.AppName())
			}
		}
	}
}

// One operation recorded as k touching pieces, its bytes divided among
// them, is one operation again after the concurrent merge: only the raw
// count knows.
func TestSplitOperationIsUndoneByMerging(t *testing.T) {
	split := 0
	for _, j := range metamorphicJobs(t) {
		var whole *darshan.FileRecord
		for i := range j.Records {
			if r := &j.Records[i]; !r.HasDXT() && r.C.HasWrite() && r.C.WriteEnd > r.C.WriteStart {
				whole = r
				break
			}
		}
		if whole == nil {
			continue
		}
		split++
		const k = 5
		m := j.Clone()
		m.Records = m.Records[:0]
		for i := range j.Records {
			r := j.Records[i]
			if &j.Records[i] != whole {
				m.Records = append(m.Records, r)
				continue
			}
			// The first piece keeps the open, the last the close; the
			// write window and volume are cut into k.
			cut := func(i int) float64 {
				if i == k {
					return r.C.WriteEnd
				}
				return r.C.WriteStart + float64(i)*(r.C.WriteEnd-r.C.WriteStart)/k
			}
			for p := 0; p < k; p++ {
				piece := r
				piece.C.WriteStart, piece.C.WriteEnd = cut(p), cut(p+1)
				piece.C.BytesWritten = r.C.BytesWritten / k
				piece.C.Reads, piece.C.BytesRead = 0, 0
				if p > 0 {
					piece.C.Opens, piece.C.Seeks, piece.C.Stats = 0, 0, 0
				}
				if p < k-1 {
					piece.C.Closes = 0
				} else {
					piece.C.BytesWritten += r.C.BytesWritten % k
					piece.C.Reads, piece.C.BytesRead = r.C.Reads, r.C.BytesRead
				}
				m.Records = append(m.Records, piece)
			}
		}
		if err := darshan.Validate(m); err != nil {
			t.Fatalf("job %d: split trace does not validate: %v", j.JobID, err)
		}
		want, err := core.Categorize(j, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Categorize(m, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got.Write.RawOps != want.Write.RawOps+k-1 {
			t.Fatalf("job %d: %d raw writes after the split, %d before", j.JobID, got.Write.RawOps, want.Write.RawOps)
		}
		got.Write.RawOps = want.Write.RawOps
		if !bytes.Equal(indented(t, got), indented(t, want)) {
			t.Fatalf("job %d (%s): split operation left a mark:\n%s\nwant\n%s", j.JobID, j.AppName(), indented(t, got), indented(t, want))
		}
	}
	if split < 10 {
		t.Fatalf("only %d traces had an operation to split", split)
	}
}

// Under 100 MB moved in a direction that had no I/O at all leaves the
// direction insignificant and every other verdict where it was.
func TestInsignificantAdditionFlipsNothing(t *testing.T) {
	added := 0
	for _, j := range metamorphicJobs(t) {
		want, err := core.Categorize(j, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, write := range []bool{false, true} {
			rep, other := &want.Read, &want.Write
			if write {
				rep, other = other, rep
			}
			if rep.RawOps != 0 {
				continue
			}
			added++
			m := j.Clone()
			c := darshan.Counters{Reads: 3, BytesRead: 99 << 20, ReadStart: j.Runtime * 0.25, ReadEnd: j.Runtime * 0.5}
			if write {
				c = darshan.Counters{Writes: 3, BytesWritten: 99 << 20, WriteStart: j.Runtime * 0.25, WriteEnd: j.Runtime * 0.5}
			}
			m.Records = append(m.Records, darshan.FileRecord{Module: darshan.ModPOSIX, Path: "/extra", C: c})
			if err := darshan.Validate(m); err != nil {
				t.Fatal(err)
			}
			got, err := core.Categorize(m, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			gotRep, gotOther := &got.Read, &got.Write
			if write {
				gotRep, gotOther = gotOther, gotRep
			}
			if gotRep.Significant() || gotRep.TotalBytes != 99<<20 || gotRep.MergedOps != 1 {
				t.Fatalf("job %d: added direction reads %+v", j.JobID, gotRep)
			}
			if !bytes.Equal(indented(t, got.Labels), indented(t, want.Labels)) ||
				!bytes.Equal(indented(t, gotOther), indented(t, other)) ||
				got.Meta != want.Meta {
				t.Fatalf("job %d (%s): an insignificant addition changed another verdict", j.JobID, j.AppName())
			}
		}
	}
	if added < 5 {
		t.Fatalf("only %d traces had an empty direction", added)
	}
}
