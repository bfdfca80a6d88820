package cluster_test

// Differential tests of the accelerated Mean Shift path on realistic
// inputs: every generator archetype's segment features, embedded exactly
// as the production pipeline embeds them, clustered by the O(n²)
// reference (reference_test.go) and by MeanShift.

import (
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/cluster"
	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/interval"
	"github.com/mosaic-hpc/mosaic/internal/segment"
)

// archetypeFeatures reproduces the pipeline's feature extraction (clip →
// merge → split → embed) for both directions of one generated run.
func archetypeFeatures(t *testing.T, arch gen.Archetype, seed int64) [][]cluster.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := arch.Params(rng)
	b := gen.NewBuilder(rng, "bench", arch.Exe, uint64(seed)+1, p.Ranks, p.RuntimeBase)
	arch.Build(b, p)
	job := b.Job()
	var out [][]cluster.Point
	pol := interval.DefaultNeighborPolicy()
	for _, raw := range [][]interval.Interval{job.ReadIntervals(), job.WriteIntervals()} {
		merged, _, _ := interval.MergeInPlace(raw, job.Runtime, pol)
		segs := segment.Split(merged, job.Runtime)
		if len(segs) < 2 {
			continue
		}
		cfg := segment.DefaultDetectConfig(job.Runtime)
		out = append(out, segment.Features(segs, cfg.Features))
	}
	return out
}

// TestArchetypesFlatAcceleratedIdentical: for every archetype and both
// directions, MeanShift must be label-identical to the O(n²) reference.
func TestArchetypesFlatAcceleratedIdentical(t *testing.T) {
	for _, arch := range gen.DefaultArchetypes() {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				for di, pts := range archetypeFeatures(t, arch, seed) {
					exact := cluster.ReferenceMeanShift(pts, 0.05)
					accel, err := cluster.MeanShift(pts, cluster.MeanShiftConfig{Bandwidth: 0.05})
					if err != nil {
						t.Fatal(err)
					}
					if len(exact.Centers) != len(accel.Centers) {
						t.Fatalf("seed=%d dir=%d n=%d: centers %d vs %d",
							seed, di, len(pts), len(exact.Centers), len(accel.Centers))
					}
					for i := range exact.Labels {
						if exact.Labels[i] != accel.Labels[i] {
							t.Fatalf("seed=%d dir=%d n=%d: label %d differs (%d vs %d)",
								seed, di, len(pts), i, exact.Labels[i], accel.Labels[i])
						}
					}
				}
			}
		})
	}
}

// TestSegmentDetectAccelerationEquivalent: segment.Detect must return the
// same groups with and without a scratch on the benchmark's two-train
// periodic trace.
func TestSegmentDetectAccelerationEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ops []interval.Interval
	for i := 0; i < 48; i++ {
		s := float64(i)*300 + rng.Float64()*10
		ops = append(ops, interval.Interval{Start: s, End: s + 15, Bytes: 1 << 30})
	}
	for i := 0; i < 20; i++ {
		s := float64(i)*730 + 50 + rng.Float64()*10
		ops = append(ops, interval.Interval{Start: s, End: s + 10, Bytes: 64 << 30})
	}
	interval.SortByStart(ops)
	segs := segment.Split(ops, 14600)

	base := segment.DefaultDetectConfig(14600)
	plain, err := segment.Detect(segs, base)
	if err != nil {
		t.Fatal(err)
	}

	withScratch := base
	withScratch.Scratch = cluster.NewScratch()
	scratched, err := segment.Detect(segs, withScratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(scratched) {
		t.Fatalf("scratch changed group count: %d vs %d", len(plain), len(scratched))
	}
	for i := range plain {
		if plain[i].Count != scratched[i].Count || plain[i].Period != scratched[i].Period {
			t.Fatalf("scratch changed group %d: %+v vs %+v", i, plain[i], scratched[i])
		}
	}
}
