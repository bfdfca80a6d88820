package dsp_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/darshan"
	"github.com/mosaic-hpc/mosaic/internal/dsp"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/interval"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// The ledger of where the spectral detector and the paper's detector
// (segmentation + Mean Shift, core.Categorize) disagree, after
// "Capturing Periodic I/O Using Frequency Techniques": on every generator
// archetype and on two interleaved periodic operations, each significant
// direction either agrees — both aperiodic, or both periodic with the
// DFT period within 25 % of a Mean Shift group's — or is one of the named
// divergences below. Anything else fails.

// near reports whether a is within 25 % of b.
func near(a, b float64) bool { return b > 0 && math.Abs(a-b)/b <= 0.25 }

var ledgerDivergences = []struct {
	name, why string
	match     func(groups []segment.Group, det dsp.Detection, ops int) bool
}{
	{"interleaved", "two interleaved periodic operations: segmentation finds two groups, a single dominant frequency names one period at most (the paper's §II-B argument)",
		func(groups []segment.Group, _ dsp.Detection, _ int) bool { return len(groups) >= 2 }},
	{"harmonic", "the strongest spectral peak of a pulse train is a harmonic: the DFT period is the Mean Shift period over 2 or 3, or times 2 or 3",
		func(groups []segment.Group, det dsp.Detection, _ int) bool {
			if len(groups) != 1 || !det.Periodic {
				return false
			}
			for _, m := range []float64{0.5, 1.0 / 3, 2, 3} {
				if math.Abs(det.Period/groups[0].Period-m) <= 0.1*m {
					return true
				}
			}
			return false
		}},
	{"pulse-pair", "two bursts make a spectral peak; segmentation needs two segments of like duration and volume, and two operations give one such pair at most",
		func(groups []segment.Group, det dsp.Detection, ops int) bool {
			return len(groups) == 0 && det.Periodic && ops <= 2
		}},
}

// interleavedTrace writes two periodic operations of distinct period and
// volume through one run.
func interleavedTrace(rng *rand.Rand, id uint64) *darshan.Job {
	b := gen.NewBuilder(rng, "u", "/apps/bin/mixed", id, 64, 7200)
	b.Periodic(gen.PeriodicSpec{Period: 300, PhaseFrac: 0.05, BytesPer: 2 << 30, Records: 16, Jitter: 0.01, Write: true})
	b.Periodic(gen.PeriodicSpec{Period: 730, PhaseFrac: 0.04, BytesPer: 48 << 30, Records: 16, Jitter: 0.01, Write: true, StartAt: 95})
	return b.Job()
}

func TestMeanShiftDFTLedger(t *testing.T) {
	cfg := core.DefaultConfig()
	pol := interval.NeighborPolicy{RuntimeFraction: cfg.MergeRuntimeFraction, NeighborFraction: cfg.MergeNeighborFraction}
	type source struct {
		name  string
		build func(rng *rand.Rand, id uint64) *darshan.Job
	}
	var sources []source
	for _, arch := range gen.DefaultArchetypes() {
		sources = append(sources, source{arch.Name, func(rng *rand.Rand, id uint64) *darshan.Job {
			p := arch.Params(rng)
			b := gen.NewBuilder(rng, "u", arch.Exe, id, p.Ranks, p.RuntimeBase)
			arch.Build(b, p)
			return b.Job()
		}})
	}
	sources = append(sources, source{"interleaved", interleavedTrace})

	agree := 0
	hits := make([]int, len(ledgerDivergences))
	for _, src := range sources {
		for seed := int64(1); seed <= 10; seed++ {
			j := src.build(rand.New(rand.NewSource(seed)), uint64(seed))
			if darshan.Validate(j) != nil {
				continue
			}
			res, err := core.Categorize(j, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []category.Direction{category.DirRead, category.DirWrite} {
				rep := &res.Read
				if dir == category.DirWrite {
					rep = &res.Write
				}
				if !rep.Significant() {
					continue
				}
				raw, _ := j.AppendIntervals(nil, dir == category.DirWrite, !cfg.DisableDXT)
				merged, _, _ := interval.MergeInPlace(raw, j.Runtime, pol)
				det := dsp.DetectPeriodicity(merged, j.Runtime, dsp.DetectorConfig{})
				if len(rep.Groups) <= 1 && det.Periodic == (len(rep.Groups) == 1) &&
					(!det.Periodic || near(det.Period, rep.Groups[0].Period)) {
					agree++
					continue
				}
				row := -1
				for i, d := range ledgerDivergences {
					if d.match(rep.Groups, det, len(merged)) {
						row = i
						break
					}
				}
				if row < 0 {
					t.Errorf("%s seed %d %s: Mean Shift %d groups (dominant period %g s), DFT periodic=%v period %g s: no named divergence",
						src.name, seed, dir, len(rep.Groups), rep.DominantPeriod(), det.Periodic, det.Period)
					continue
				}
				hits[row]++
			}
		}
	}
	t.Logf("%d directions agree", agree)
	for i, d := range ledgerDivergences {
		t.Logf("  %-11s %3d  %s", d.name, hits[i], d.why)
	}
	if agree == 0 || hits[0] == 0 {
		t.Fatalf("agreements %d, interleaved %d: the ledger no longer exercises both detectors", agree, hits[0])
	}
}
