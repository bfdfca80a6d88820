package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates k gaussian-ish clusters of n points each, centered
// spread apart, and returns the points plus true labels.
func blobs(rng *rand.Rand, k, n int, spread, noise float64) ([]Point, []int) {
	var pts []Point
	var labels []int
	for c := 0; c < k; c++ {
		cx := float64(c) * spread
		cy := float64(c%2) * spread
		for i := 0; i < n; i++ {
			pts = append(pts, Point{cx + rng.NormFloat64()*noise, cy + rng.NormFloat64()*noise})
			labels = append(labels, c)
		}
	}
	return pts, labels
}

func TestDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if Dist(a, b) != 5 || Dist2(a, b) != 25 {
		t.Fatal("distance")
	}
	if Dist(a, a) != 0 {
		t.Fatal("self distance")
	}
}

func TestMeanShiftSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, truth := blobs(rng, 3, 40, 10, 0.3)
	res, err := MeanShift(pts, MeanShiftConfig{Bandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Fatalf("found %d clusters, want 3", len(res.Centers))
	}
	if ari := AdjustedRandIndex(res.Labels, truth); ari < 0.99 {
		t.Fatalf("ARI = %g, want ~1", ari)
	}
}

func TestMeanShiftSingleCluster(t *testing.T) {
	pts := []Point{{0, 0}, {0.1, 0}, {0, 0.1}, {0.05, 0.05}}
	res, err := MeanShift(pts, MeanShiftConfig{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 1 {
		t.Fatalf("centers = %d, want 1", len(res.Centers))
	}
	sizes := res.ClusterSizes()
	if sizes[0] != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestMeanShiftIdenticalPoints(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 1}}
	res, err := MeanShift(pts, MeanShiftConfig{Bandwidth: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 1 || res.Labels[0] != res.Labels[2] {
		t.Fatal("identical points must form one cluster")
	}
}

func TestMeanShiftErrors(t *testing.T) {
	if _, err := MeanShift([]Point{{1}}, MeanShiftConfig{Bandwidth: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := MeanShift([]Point{{1}}, MeanShiftConfig{Bandwidth: math.NaN()}); err == nil {
		t.Fatal("NaN bandwidth accepted")
	}
	if _, err := MeanShift([]Point{{1, 2}, {1}}, MeanShiftConfig{Bandwidth: 1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := MeanShift([]Point{{math.NaN(), 0}}, MeanShiftConfig{Bandwidth: 1}); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	res, err := MeanShift(nil, MeanShiftConfig{Bandwidth: 1})
	if err != nil || len(res.Labels) != 0 {
		t.Fatal("empty input should succeed with empty result")
	}
}

// Property: every point gets a label in range, and labels are dense.
func TestMeanShiftLabelInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * 10, r.Float64() * 10}
		}
		res, err := MeanShift(pts, MeanShiftConfig{Bandwidth: 0.5 + r.Float64()*3})
		if err != nil || len(res.Labels) != n {
			return false
		}
		used := make([]bool, len(res.Centers))
		for _, l := range res.Labels {
			if l < 0 || l >= len(res.Centers) {
				return false
			}
			used[l] = true
		}
		for _, u := range used {
			if !u {
				return false // labels must be dense
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateBandwidth(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {10, 0}}
	bw := EstimateBandwidth(pts, 0.5)
	if bw <= 0 {
		t.Fatalf("bandwidth = %g", bw)
	}
	if EstimateBandwidth(pts[:1], 0.5) != 0 {
		t.Fatal("single point should give 0")
	}
	if got := EstimateBandwidth(pts, 0); got != 1 {
		t.Fatalf("quantile 0 = %g, want min distance 1", got)
	}
	if got := EstimateBandwidth(pts, 1); got != 10 {
		t.Fatalf("quantile 1 = %g, want max distance 10", got)
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	if ari := AdjustedRandIndex([]int{0, 0, 1, 1}, []int{1, 1, 0, 0}); ari != 1 {
		t.Fatalf("relabeled identical partitions ARI = %g", ari)
	}
	if ari := AdjustedRandIndex([]int{0, 1, 0, 1}, []int{0, 0, 1, 1}); ari >= 0.5 {
		t.Fatalf("disagreeing partitions ARI = %g", ari)
	}
	if AdjustedRandIndex([]int{0}, []int{0, 1}) != 0 {
		t.Fatal("length mismatch should give 0")
	}
	if AdjustedRandIndex(nil, nil) != 0 {
		t.Fatal("empty should give 0")
	}
	if ari := AdjustedRandIndex([]int{0, 0, 0}, []int{0, 0, 0}); ari != 1 {
		t.Fatalf("trivial partitions ARI = %g, want 1", ari)
	}
}
