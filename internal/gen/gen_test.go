package gen

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
)

func TestAppSharesSumToOne(t *testing.T) {
	var sum float64
	for _, a := range DefaultArchetypes() {
		if a.AppShare <= 0 {
			t.Errorf("archetype %s has non-positive share", a.Name)
		}
		sum += a.AppShare
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("app shares sum to %g, want 1", sum)
	}
}

func TestArchetypesProduceValidTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, arch := range DefaultArchetypes() {
		t.Run(arch.Name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				p := arch.Params(rng)
				b := NewBuilder(rng, "u1", arch.Exe, uint64(trial+1), p.Ranks, runJitter(rng, p.RuntimeBase))
				arch.Build(b, p)
				j := b.Job()
				if err := darshan.Validate(j); err != nil {
					t.Fatalf("trial %d: generated trace invalid: %v", trial, err)
				}
				if Truth(j) == 0 {
					t.Fatalf("trial %d: no ground truth recorded", trial)
				}
				if j.Metadata[ArchetypeKey] == "" && arch.Name != "" {
					// ArchetypeKey is set by the corpus, not the builder.
					_ = j
				}
			}
		})
	}
}

func TestTruthRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(rng, "u", "/bin/x", 1, 8, 100)
	b.Label(category.Temporal(category.DirRead, category.OnStart), category.MetaHighSpike)
	j := b.Job()
	truth := Truth(j)
	if !truth.Has(category.Temporal(category.DirRead, category.OnStart)) || !truth.Has(category.MetaHighSpike) {
		t.Fatalf("truth round trip lost labels: %v", truth)
	}
	if Truth(&darshan.Job{}) != 0 {
		t.Fatal("Truth of unannotated job should be empty")
	}
}

func TestPlanDeterminism(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 50
	c1 := Plan(p)
	c2 := Plan(p)
	if c1.TotalRuns() != c2.TotalRuns() {
		t.Fatalf("plans differ: %d vs %d runs", c1.TotalRuns(), c2.TotalRuns())
	}
	r1 := c1.GenerateRun(c1.Apps[3], 2)
	r2 := c2.GenerateRun(c2.Apps[3], 2)
	if r1.Job.JobID != r2.Job.JobID || r1.Job.Runtime != r2.Job.Runtime ||
		len(r1.Job.Records) != len(r2.Job.Records) || r1.Corrupted != r2.Corrupted {
		t.Fatal("run generation not deterministic")
	}
	b1, err := darshan.MarshalBinary(r1.Job)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := darshan.MarshalBinary(r2.Job)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) && len(r1.Job.Metadata) <= 1 {
		t.Fatal("binary encodings differ")
	}
}

func TestPlanApportionment(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 1000
	c := Plan(p)
	if len(c.Apps) != 1000 {
		t.Fatalf("planned %d apps, want 1000", len(c.Apps))
	}
	counts := map[string]int{}
	for _, a := range c.Apps {
		counts[a.Archetype.Name]++
	}
	for _, arch := range DefaultArchetypes() {
		got := counts[arch.Name]
		want := arch.AppShare * 1000
		if math.Abs(float64(got)-want) > 1.5 {
			t.Errorf("archetype %s: %d apps, want ~%.0f", arch.Name, got, want)
		}
	}
}

func TestPlanUniqueAppKeys(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 300
	c := Plan(p)
	seen := map[[2]string]bool{}
	for _, a := range c.Apps {
		r := c.GenerateRun(a, 0)
		key := [2]string{r.Job.User, r.Job.AppName()}
		if seen[key] {
			t.Fatalf("duplicate app key %q", key)
		}
		seen[key] = true
	}
}

func TestCorruptionRate(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 120
	c := Plan(p)
	var corrupted, total int
	c.Each(func(r Run) bool {
		total++
		if r.Corrupted {
			corrupted++
		}
		return total < 5000
	})
	frac := float64(corrupted) / float64(total)
	if frac < 0.25 || frac > 0.40 {
		t.Fatalf("corruption fraction %.2f outside [0.25, 0.40]", frac)
	}
}

func TestCorruptedTracesFailValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	arch, _ := ArchetypeByName("read-compute-write")
	for kind := 0; kind < CorruptKinds; kind++ {
		// Corrupt picks its kind from the rng; try until each kind hits.
		p := arch.Params(rng)
		b := NewBuilder(rng, "u", arch.Exe, 1, p.Ranks, p.RuntimeBase)
		arch.Build(b, p)
		j := b.Job()
		applied := Corrupt(j, rng)
		if err := darshan.Validate(j); err == nil {
			t.Fatalf("corruption kind %d not detected by validation", applied)
		}
	}
}

func TestGeometricRunsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const mean = 40.0
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(geometricRuns(rng, mean, 100000))
	}
	got := sum / n
	if got < mean*0.9 || got > mean*1.1 {
		t.Fatalf("geometric mean = %.1f, want ~%.0f", got, mean)
	}
	if geometricRuns(rng, 0.5, 10) != 1 {
		t.Fatal("mean <= 1 should give exactly 1 run")
	}
}

func TestReservoirSampling(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 60
	c := Plan(p)
	k := 32
	sample := c.Reservoir(k, 7)
	if len(sample) != k && c.TotalRuns() >= k {
		t.Fatalf("reservoir returned %d, want %d", len(sample), k)
	}
	for _, r := range sample {
		if r.Job == nil {
			t.Fatal("nil job in sample")
		}
	}
}

func TestBuilderBurstClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBuilder(rng, "u", "/bin/x", 1, 4, 100)
	b.Burst(BurstSpec{At: 99.5, Duration: 10, Bytes: 1000, Records: 3, Write: true})
	j := b.Job()
	if err := darshan.Validate(j); err != nil {
		t.Fatalf("clamped burst invalid: %v", err)
	}
	for _, r := range j.Records {
		if r.C.WriteEnd > 100 {
			t.Fatalf("write end %g beyond runtime", r.C.WriteEnd)
		}
	}
}

func TestPeriodicPhaseCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder(rng, "u", "/bin/x", 1, 4, 1000)
	n := b.Periodic(PeriodicSpec{Period: 100, PhaseFrac: 0.1, BytesPer: 1 << 20, Records: 2, Write: true})
	if n < 8 || n > 11 {
		t.Fatalf("periodic emitted %d phases over 10 periods", n)
	}
	if got := len(b.Job().Records); got != n*2 {
		t.Fatalf("records = %d, want %d", got, n*2)
	}
}

func TestMetadataStormEventSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBuilder(rng, "u", "/bin/x", 1, 4, 1000)
	b.MetadataStorm(10, 990, 50, 100)
	j := b.Job()
	events := j.MetaEvents()
	if len(events) < 50 {
		t.Fatalf("storm produced %d events, want >= 50", len(events))
	}
	if j.TotalMetaOps() < 50*100 {
		t.Fatalf("total meta ops = %d", j.TotalMetaOps())
	}
}

func TestSteadyHiddenPeriodic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewBuilder(rng, "u", "/bin/h", 1, 8, 6000)
	n := b.SteadyHiddenPeriodic(true, 500, 0.05, 8<<30, 4, true)
	if n < 10 {
		t.Fatalf("phases = %d", n)
	}
	j := b.Job()
	if err := darshan.Validate(j); err != nil {
		t.Fatalf("hidden-periodic trace invalid: %v", err)
	}
	if len(j.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(j.Records))
	}
	if !j.HasDXT() {
		t.Fatal("DXT events missing")
	}
	// Each record's aggregate window spans most of the run while DXT
	// events are short bursts inside it.
	rec := j.Records[0]
	if len(rec.DXTWrites) != n {
		t.Fatalf("DXT events = %d, want %d", len(rec.DXTWrites), n)
	}
	aggSpan := rec.C.WriteEnd - rec.C.WriteStart
	if aggSpan < 4000 {
		t.Fatalf("aggregate window = %g, should span most of the run", aggSpan)
	}
	// Without DXT: no events.
	b2 := NewBuilder(rng, "u", "/bin/h", 2, 8, 6000)
	b2.SteadyHiddenPeriodic(true, 500, 0.05, 8<<30, 4, false)
	if b2.Job().HasDXT() {
		t.Fatal("aggregate-only trace carries DXT")
	}
	// Degenerate parameters produce nothing.
	b3 := NewBuilder(rng, "u", "/bin/h", 3, 8, 100)
	if b3.SteadyHiddenPeriodic(true, 200, 0.05, 1<<20, 2, true) != 0 {
		t.Fatal("period beyond runtime should emit nothing")
	}
}

func TestDXTArchetypesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, withDXT := range []bool{false, true} {
		arch := DXTCheckpointerArchetype(withDXT)
		p := arch.Params(rng)
		b := NewBuilder(rng, "u", arch.Exe, 1, p.Ranks, p.RuntimeBase)
		arch.Build(b, p)
		j := b.Job()
		if err := darshan.Validate(j); err != nil {
			t.Fatalf("withDXT=%v: invalid: %v", withDXT, err)
		}
		if j.HasDXT() != withDXT {
			t.Fatalf("withDXT=%v: HasDXT=%v", withDXT, j.HasDXT())
		}
		truth := Truth(j)
		if withDXT && !truth.Has(category.Periodic(category.DirWrite)) {
			t.Fatal("DXT variant truth missing periodicity")
		}
		if !withDXT && truth.Has(category.Periodic(category.DirWrite)) {
			t.Fatal("aggregate variant truth should not promise periodicity")
		}
	}
}

func TestCorpusModuleDiversity(t *testing.T) {
	p := DefaultProfile()
	p.Apps = 150
	p.CorruptionRate = 0
	c := Plan(p)
	counts := map[darshan.Module]int{}
	n := 0
	c.Each(func(r Run) bool {
		for _, rec := range r.Job.Records {
			counts[rec.Module]++
		}
		n++
		return n < 400
	})
	if counts[darshan.ModPOSIX] == 0 || counts[darshan.ModMPIIO] == 0 || counts[darshan.ModSTDIO] == 0 {
		t.Fatalf("missing module diversity: %v", counts)
	}
	// Record mix depends on which archetypes land in the sampled prefix;
	// presence of all three APIs is the invariant.
}
