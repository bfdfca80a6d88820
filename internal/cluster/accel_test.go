package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// blobs generates k well-separated Gaussian blobs plus a fraction of
// uniform noise in [0,1]^2 — the synthetic workload of the differential
// and determinism tests.
func noisyBlobs(rng *rand.Rand, n, k int, spread, noiseFrac float64) []Point {
	centers := make([]Point, k)
	for i := range centers {
		centers[i] = Point{rng.Float64(), rng.Float64()}
	}
	pts := make([]Point, n)
	for i := range pts {
		if rng.Float64() < noiseFrac {
			pts[i] = Point{rng.Float64(), rng.Float64()}
			continue
		}
		c := centers[rng.Intn(k)]
		pts[i] = Point{
			c[0] + rng.NormFloat64()*spread,
			c[1] + rng.NormFloat64()*spread,
		}
	}
	return pts
}

func mustShift(t *testing.T, pts []Point, cfg MeanShiftConfig) *Result {
	t.Helper()
	res, err := MeanShift(pts, cfg)
	if err != nil {
		t.Fatalf("MeanShift(%+v): %v", cfg, err)
	}
	return res
}

// TestAcceleratedFlatMatchesExact: the grid-accelerated path must produce
// label-identical results to the O(n²) reference (reference_test.go) —
// the flat kernel neighborhood (radius h) is fully covered by the radius-1
// cell probe, so only the accumulation order differs.
func TestAcceleratedFlatMatchesExact(t *testing.T) {
	for _, n := range []int{64, 200, 1000} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(n)))
			pts := noisyBlobs(rng, n, 4, 0.02, 0.2)
			exact := ReferenceMeanShift(pts, 0.08)
			var st MeanShiftStats
			accel := mustShift(t, pts, MeanShiftConfig{Bandwidth: 0.08, Stats: &st})
			if !st.Accelerated {
				t.Fatalf("n=%d: accelerated path not taken", n)
			}
			if len(exact.Centers) != len(accel.Centers) {
				t.Fatalf("n=%d seed=%d: center counts differ: exact %d, accel %d",
					n, seed, len(exact.Centers), len(accel.Centers))
			}
			for i := range exact.Labels {
				if exact.Labels[i] != accel.Labels[i] {
					t.Fatalf("n=%d seed=%d: label %d differs: exact %d, accel %d",
						n, seed, i, exact.Labels[i], accel.Labels[i])
				}
			}
		}
	}
}

// TestMeanShiftDeterministicAcrossSchedules: labels AND centers must be
// bit-identical across worker counts, GOMAXPROCS settings and repeated
// runs — the property the serial commit pass exists to guarantee. Run
// with -race in CI.
func TestMeanShiftDeterministicAcrossSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := noisyBlobs(rng, 1500, 5, 0.02, 0.2)

	type variant struct {
		name string
		cfg  MeanShiftConfig
	}
	variants := []variant{
		{"exhaustive", MeanShiftConfig{Bandwidth: 0.07}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var refLabels []int
			var refCenters []Point
			run := 0
			for _, procs := range []int{1, 4, 8} {
				prev := runtime.GOMAXPROCS(procs)
				for _, workers := range []int{0, 1, 4, 8} {
					cfg := v.cfg
					cfg.Workers = workers
					cfg.Scratch = NewScratch()
					for rep := 0; rep < 4; rep++ {
						res := mustShift(t, pts, cfg)
						if refLabels == nil {
							refLabels = append([]int(nil), res.Labels...)
							refCenters = res.Centers
							continue
						}
						run++
						for i := range refLabels {
							if res.Labels[i] != refLabels[i] {
								runtime.GOMAXPROCS(prev)
								t.Fatalf("procs=%d workers=%d rep=%d: label %d = %d, want %d",
									procs, workers, rep, i, res.Labels[i], refLabels[i])
							}
						}
						if len(res.Centers) != len(refCenters) {
							runtime.GOMAXPROCS(prev)
							t.Fatalf("procs=%d workers=%d: %d centers, want %d",
								procs, workers, len(res.Centers), len(refCenters))
						}
						for c := range refCenters {
							for k := range refCenters[c] {
								if res.Centers[c][k] != refCenters[c][k] {
									runtime.GOMAXPROCS(prev)
									t.Fatalf("procs=%d workers=%d: center %d[%d] = %v, want bit-identical %v",
										procs, workers, c, k, res.Centers[c][k], refCenters[c][k])
								}
							}
						}
					}
				}
				runtime.GOMAXPROCS(prev)
			}
			if run < 40 {
				t.Fatalf("only %d comparison runs executed", run)
			}
		})
	}
}

// TestMeanShiftStatsPopulated checks the cost profile reporting of a
// dense run (below denseCutoff points) and a grid run.
func TestMeanShiftStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := noisyBlobs(rng, 800, 3, 0.02, 0.1)

	var dense MeanShiftStats
	mustShift(t, pts[:denseCutoff-1], MeanShiftConfig{Bandwidth: 0.08, Stats: &dense})
	if dense.Accelerated || dense.GridCells != 0 {
		t.Fatalf("dense run reported acceleration: %+v", dense)
	}
	if dense.Points != denseCutoff-1 || dense.Seeds != dense.Points || dense.Rounds == 0 || dense.Iterations < dense.Seeds {
		t.Fatalf("implausible dense stats: %+v", dense)
	}

	var grid MeanShiftStats
	mustShift(t, pts, MeanShiftConfig{Bandwidth: 0.08, Stats: &grid})
	if !grid.Accelerated || grid.GridCells == 0 || grid.GridCells > grid.Points {
		t.Fatalf("grid run did not use the grid: %+v", grid)
	}
	if grid.Points != 800 || grid.Seeds != 800 || grid.Rounds == 0 || grid.Iterations < grid.Seeds {
		t.Fatalf("implausible grid stats: %+v", grid)
	}

	before := TotalStats()
	mustShift(t, pts, MeanShiftConfig{Bandwidth: 0.08})
	after := TotalStats()
	if after.Runs != before.Runs+1 || after.Seeds < before.Seeds+800 {
		t.Fatalf("package totals not accumulated: %+v -> %+v", before, after)
	}
}

// TestMeanShiftScratchReuseIdentical: reusing one scratch across runs of
// different sizes must not change any result.
func TestMeanShiftScratchReuseIdentical(t *testing.T) {
	sc := NewScratch()
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{40, 900, 120, 2000} {
		pts := noisyBlobs(rng, n, 3, 0.02, 0.15)
		fresh := mustShift(t, pts, MeanShiftConfig{Bandwidth: 0.08})
		reused := mustShift(t, pts, MeanShiftConfig{Bandwidth: 0.08, Scratch: sc})
		for i := range fresh.Labels {
			if fresh.Labels[i] != reused.Labels[i] {
				t.Fatalf("n=%d: scratch reuse changed label %d", n, i)
			}
		}
		if len(fresh.Centers) != len(reused.Centers) {
			t.Fatalf("n=%d: scratch reuse changed center count", n)
		}
	}
}

// --- EstimateBandwidth ---

// estimateBandwidthRef is the historical sort-based implementation, kept
// as the test oracle for the exact (n ≤ cutoff) regime.
func estimateBandwidthRef(points []Point, quantile float64) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	var dists []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dists = append(dists, Dist(points[i], points[j]))
		}
	}
	sort.Float64s(dists)
	idx := int(quantile * float64(len(dists)-1))
	return dists[idx]
}

func TestEstimateBandwidthExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 17, 100, 256} {
		pts := noisyBlobs(rng, n, 3, 0.05, 0.3)
		for _, q := range []float64{0, 0.25, 0.3, 0.5, 0.9, 1} {
			got := EstimateBandwidth(pts, q)
			want := estimateBandwidthRef(pts, q)
			if got != want {
				t.Fatalf("n=%d q=%v: got %v, want exact %v", n, q, got, want)
			}
		}
	}
}

func TestEstimateBandwidthLargeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := noisyBlobs(rng, 1200, 4, 0.05, 0.3)
	a := EstimateBandwidth(pts, 0.3)
	b := EstimateBandwidth(pts, 0.3)
	if a != b {
		t.Fatalf("sampled estimate not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("estimate must be positive, got %v", a)
	}
	// The sampled value must approximate the exact quantile.
	exact := estimateBandwidthRef(pts, 0.3)
	if rel := math.Abs(a-exact) / exact; rel > 0.05 {
		t.Fatalf("sampled estimate %v deviates %.1f%% from exact %v", a, rel*100, exact)
	}
}

func TestEstimateBandwidthQuantileGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := noisyBlobs(rng, 50, 2, 0.05, 0.3)
	if got, want := EstimateBandwidth(pts, math.NaN()), EstimateBandwidth(pts, 0.3); got != want {
		t.Fatalf("NaN quantile: got %v, want default-0.3 value %v", got, want)
	}
	if got, want := EstimateBandwidth(pts, math.Inf(-1)), EstimateBandwidth(pts, 0); got != want {
		t.Fatalf("-Inf quantile: got %v, want %v", got, want)
	}
	if got, want := EstimateBandwidth(pts, math.Inf(1)), EstimateBandwidth(pts, 1); got != want {
		t.Fatalf("+Inf quantile: got %v, want %v", got, want)
	}
	if got := EstimateBandwidth(pts[:1], 0.3); got != 0 {
		t.Fatalf("single point: got %v, want 0", got)
	}
	if got := EstimateBandwidth(nil, 0.3); got != 0 {
		t.Fatalf("no points: got %v, want 0", got)
	}
}

func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		if got := selectKth(append([]float64(nil), xs...), k); got != sorted[k] {
			t.Fatalf("trial %d: selectKth(%d) = %v, want %v", trial, k, got, sorted[k])
		}
	}
	// Sorted and constant inputs (median-of-three worst cases).
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := selectKth(append([]float64(nil), asc...), 6); got != 7 {
		t.Fatalf("ascending: got %v", got)
	}
	flat := []float64{3, 3, 3, 3}
	if got := selectKth(append([]float64(nil), flat...), 2); got != 3 {
		t.Fatalf("constant: got %v", got)
	}
}
