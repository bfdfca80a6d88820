package segment

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/interval"
)

func opsEvery(period, dur float64, count int, bytes int64) []interval.Interval {
	var ops []interval.Interval
	for i := 0; i < count; i++ {
		s := period/2 + float64(i)*period
		ops = append(ops, interval.Interval{Start: s, End: s + dur, Bytes: bytes})
	}
	return ops
}

func TestSplit(t *testing.T) {
	ops := []interval.Interval{
		{Start: 10, End: 20, Bytes: 100},
		{Start: 50, End: 55, Bytes: 200},
		{Start: 90, End: 95, Bytes: 300},
	}
	segs := Split(ops, 100)
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	// Segment duration = start-to-start of the next op.
	if segs[0].Duration != 40 || segs[1].Duration != 40 {
		t.Fatalf("durations = %v, %v", segs[0].Duration, segs[1].Duration)
	}
	// The last segment closes at end of run.
	if segs[2].Duration != 10 {
		t.Fatalf("last duration = %v", segs[2].Duration)
	}
	if segs[1].Op.Bytes != 200 {
		t.Fatal("op not carried into segment")
	}
	if got := Split(nil, 100); len(got) != 0 {
		t.Fatal("empty split")
	}
}

func TestSplitClampsNegativeDurations(t *testing.T) {
	// Op starting after runtime end must not yield negative duration.
	segs := Split([]interval.Interval{{Start: 120, End: 130}}, 100)
	if segs[0].Duration != 0 {
		t.Fatalf("duration = %g, want 0", segs[0].Duration)
	}
}

func TestFeaturesScaling(t *testing.T) {
	segs := []Segment{
		{Op: interval.Interval{Bytes: 0}, Duration: 50},
		{Op: interval.Interval{Bytes: 1 << 30}, Duration: 100},
	}
	pts := Features(segs, FeatureConfig{Runtime: 1000, VolumeLogScale: 64})
	if pts[0][0] != 0.05 || pts[1][0] != 0.1 {
		t.Fatalf("duration features = %v", pts)
	}
	if pts[0][1] != 0 {
		t.Fatalf("zero-byte feature = %g", pts[0][1])
	}
	want := math.Log2(1+float64(1<<30)) / 64
	if math.Abs(pts[1][1]-want) > 1e-12 {
		t.Fatalf("volume feature = %g, want %g", pts[1][1], want)
	}
	// Defaults guard against zero config.
	pts = Features(segs, FeatureConfig{})
	if math.IsNaN(pts[0][0]) || math.IsInf(pts[0][0], 0) {
		t.Fatal("zero config produced non-finite features")
	}
}

func TestDetectCheckpointTrain(t *testing.T) {
	ops := opsEvery(300, 15, 12, 1<<30) // runtime ~3600
	segs := Split(ops, 3700)
	groups, err := Detect(segs, DefaultDetectConfig(3700))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	g := groups[0]
	if g.Count < 11 {
		t.Fatalf("group size = %d, want >= 11", g.Count)
	}
	if math.Abs(g.Period-300)/300 > 0.1 {
		t.Fatalf("period = %g, want ~300", g.Period)
	}
	if g.Magnitude != category.MagMinute {
		t.Fatalf("magnitude = %v", g.Magnitude)
	}
	if g.BusyHigh() {
		t.Fatalf("busy ratio %g should be low", g.BusyRatio)
	}
	if math.Abs(g.MeanBytes-float64(1<<30)) > 1 {
		t.Fatalf("mean bytes = %g", g.MeanBytes)
	}
}

func TestDetectTwoInterleavedTrains(t *testing.T) {
	// Checkpoints every 300s of 1 GiB and input reads every 700s of
	// 64 GiB: the paper's real-life case of several periodic operations
	// in one application.
	ops := append(opsEvery(300, 10, 24, 1<<30), opsEvery(701, 10, 10, 64<<30)...)
	interval.SortByStart(ops)
	segs := Split(ops, 7300)
	groups, err := Detect(segs, DefaultDetectConfig(7300))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("groups = %d, want >= 2 (two interleaved periodic operations)", len(groups))
	}
}

func TestDetectRejectsAperiodic(t *testing.T) {
	ops := []interval.Interval{
		{Start: 10, End: 100, Bytes: 1 << 30},
		{Start: 3500, End: 3590, Bytes: 8 << 30},
	}
	segs := Split(ops, 3600)
	groups, err := Detect(segs, DefaultDetectConfig(3600))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("aperiodic trace produced groups: %+v", groups)
	}
}

func TestDetectMinCoverage(t *testing.T) {
	// Two near-identical ops at the very start of a long job: without
	// the coverage guard they would form a bogus periodic group.
	ops := []interval.Interval{
		{Start: 10, End: 20, Bytes: 1 << 30},
		{Start: 110, End: 120, Bytes: 1 << 30},
		{Start: 215, End: 230, Bytes: 1 << 28},
	}
	segs := Split(ops, 86400)
	groups, err := Detect(segs, DefaultDetectConfig(86400))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("low-coverage group not suppressed: %+v", groups)
	}
}

func TestDetectTooFewSegments(t *testing.T) {
	segs := Split([]interval.Interval{{Start: 1, End: 2, Bytes: 5}}, 10)
	groups, err := Detect(segs, DefaultDetectConfig(10))
	if err != nil || groups != nil {
		t.Fatalf("single segment: groups=%v err=%v", groups, err)
	}
}

func TestDetectJitterTolerance(t *testing.T) {
	// 5% period jitter and 10% volume jitter must still group.
	rng := rand.New(rand.NewSource(8))
	var ops []interval.Interval
	for i := 0; i < 15; i++ {
		s := float64(i)*600 + 300 + (rng.Float64()*2-1)*30
		bytes := int64(float64(2<<30) * (0.9 + rng.Float64()*0.2))
		ops = append(ops, interval.Interval{Start: s, End: s + 20, Bytes: bytes})
	}
	segs := Split(ops, 9300)
	groups, err := Detect(segs, DefaultDetectConfig(9300))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("jittered train: groups = %d, want 1", len(groups))
	}
	if groups[0].Count < 13 {
		t.Fatalf("group lost members: %d", groups[0].Count)
	}
}

func TestBusyHighDetection(t *testing.T) {
	// Phases occupying 40% of each period: high busy time.
	ops := opsEvery(100, 40, 20, 1<<30)
	segs := Split(ops, 2100)
	groups, err := Detect(segs, DefaultDetectConfig(2100))
	if err != nil || len(groups) != 1 {
		t.Fatalf("groups=%v err=%v", groups, err)
	}
	if !groups[0].BusyHigh() {
		t.Fatalf("busy ratio %g should be high", groups[0].BusyRatio)
	}
}

func TestCategories(t *testing.T) {
	groups := []Group{
		{Period: 300, Magnitude: category.MagMinute, BusyRatio: 0.05, Count: 10},
		{Period: 5000, Magnitude: category.MagHour, BusyRatio: 0.4, Count: 5},
	}
	s := Categories(category.DirWrite, groups)
	for _, want := range []category.Category{
		"write_periodic", "write_periodic_minute", "write_periodic_hour",
		"write_periodic_low_busy_time", "write_periodic_high_busy_time",
	} {
		if !s.Has(want) {
			t.Errorf("missing %q in %v", want, s)
		}
	}
	if Categories(category.DirRead, nil) != 0 {
		t.Fatal("no groups should give empty set")
	}
}
