package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/gen"
)

// The metadata detector as it stood before the sparse rate table — one
// float64 per second of runtime, filled from Job.MetaEvents — kept as the
// reference classifyMetadata is held to.

func rateHistogram(events []darshan.MetaEvent, runtime float64) []float64 {
	n := int(math.Ceil(runtime))
	if n < 1 {
		n = 1
	}
	scale := 1.0
	if n > maxRateBins {
		scale = float64(n) / float64(maxRateBins)
		n = maxRateBins
	}
	bins := make([]float64, n)
	for _, ev := range events {
		i := int(ev.Time / scale)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		bins[i] += float64(ev.Count)
	}
	if scale != 1 {
		for i := range bins {
			bins[i] /= scale
		}
	}
	return bins
}

func oracleClassifyMetadata(j *darshan.Job, cfg *Config) (category.Set, MetaReport) {
	out := category.NewSet()
	rep := MetaReport{TotalOps: j.TotalMetaOps()}
	if rep.TotalOps < int64(j.NProcs) {
		out.Add(category.MetaInsignificantLoad)
		return out, rep
	}
	bins := rateHistogram(j.MetaEvents(), j.Runtime)
	var total float64
	for _, r := range bins {
		total += r
		if r > rep.PeakRate {
			rep.PeakRate = r
		}
		if r >= cfg.SpikeRate {
			rep.SpikeCount++
		}
		if r >= cfg.SpikeHighRate {
			rep.HighSpikes++
		}
	}
	if j.Runtime > 0 {
		rep.MeanRate = total / j.Runtime
	}
	if rep.HighSpikes >= 1 {
		out.Add(category.MetaHighSpike)
	}
	if rep.SpikeCount >= cfg.MultipleSpikes {
		out.Add(category.MetaMultipleSpikes)
	}
	if rep.SpikeCount >= cfg.MultipleSpikes && rep.MeanRate >= cfg.DensityRate {
		out.Add(category.MetaHighDensity)
	}
	if out == 0 {
		out.Add(category.MetaInsignificantLoad)
	}
	return out, rep
}

// checkMetaAgainstOracle classifies j through rates and fails the test
// unless categories and every reported float, bit for bit, are the
// oracle's, and the table is handed back empty.
func checkMetaAgainstOracle(t testing.TB, j *darshan.Job, cfg *Config, rates *rateTable) (category.Set, MetaReport) {
	t.Helper()
	var cats category.Set
	rep := classifyMetadata(j, cfg, rates, &cats)
	wantCats, want := oracleClassifyMetadata(j, cfg)
	if !cats.Equal(wantCats) {
		t.Fatalf("job %d: categories %v, oracle %v", j.JobID, cats, wantCats)
	}
	if rep.TotalOps != want.TotalOps || rep.SpikeCount != want.SpikeCount || rep.HighSpikes != want.HighSpikes ||
		math.Float64bits(rep.PeakRate) != math.Float64bits(want.PeakRate) ||
		math.Float64bits(rep.MeanRate) != math.Float64bits(want.MeanRate) {
		t.Fatalf("job %d: report %+v, oracle %+v", j.JobID, rep, want)
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
// corrupted in each way the generator knows, and answers as the dense
// histogram does. Unlike the merge kernel the detector has no contract
// to shelter behind — a NaN timestamp lands in the same bin on both sides.
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
