// Package cluster provides the clustering MOSAIC uses to group trace
// segments: a flat-kernel Mean Shift (Fukunaga & Hostetler, the paper's
// choice, as scikit-learn runs it) with every point a seed, a bandwidth
// estimator, and the adjusted Rand index its tests score groupings with.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/mosaic-hpc/mosaic/internal/parallel"
)

// Point is a point in d-dimensional feature space. MOSAIC clusters
// segments in 2D: (duration, data volume), suitably scaled.
type Point []float64

// Dist2 returns the squared Euclidean distance between two points of the
// same dimension.
func Dist2(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 { return math.Sqrt(Dist2(a, b)) }

// Tuning constants of the accelerated path.
const (
	// denseCutoff is the input size below which the O(n²) dense scan
	// beats grid construction. Small traces (the overwhelming majority
	// of per-trace segment sets) take the dense path and produce
	// bit-identical results to the historical implementation.
	denseCutoff = 64
	// autoParallelSeeds is the seed count above which Workers==0 turns
	// on parallel shifting.
	autoParallelSeeds = 512
	// parallelRoundCutoff is the active-seed count below which a round
	// runs serially even in a parallel run (late rounds are tiny).
	parallelRoundCutoff = 64
)

// MeanShiftConfig parametrizes MeanShift.
type MeanShiftConfig struct {
	// Bandwidth is the kernel radius in feature-space units. It is the
	// threshold at which two segments are considered part of the same
	// periodic operation; the paper set it empirically on one month of
	// traces. Must be > 0.
	Bandwidth float64
	// MaxIter bounds the shift iterations per point (default 300,
	// matching scikit-learn).
	MaxIter int
	// Tol is the convergence threshold on shift displacement
	// (default Bandwidth * 1e-3).
	Tol float64
	// Workers controls parallel seed shifting: 0 selects automatically
	// (parallel once enough seeds are active), 1 forces serial, >1 uses
	// that many goroutines. Results are identical for every setting —
	// the mode merge order is fixed by seed index, independent of
	// goroutine scheduling.
	Workers int
	// Scratch supplies reusable buffers (see Scratch). Optional; a nil
	// scratch allocates per call.
	Scratch *Scratch
	// Stats, when non-nil, receives the cost profile of the call.
	Stats *MeanShiftStats
}

func (c *MeanShiftConfig) withDefaults() MeanShiftConfig {
	out := *c
	if out.MaxIter <= 0 {
		out.MaxIter = 300
	}
	if out.Tol <= 0 {
		out.Tol = out.Bandwidth * 1e-3
	}
	return out
}

// Result is a clustering outcome: Labels[i] gives the cluster of point i,
// Centers the converged cluster modes. Cluster ids are dense in
// [0, len(Centers)).
type Result struct {
	Labels  []int
	Centers []Point
}

// ClusterSizes returns the number of points per cluster id.
func (r *Result) ClusterSizes() []int {
	sizes := make([]int, len(r.Centers))
	for _, l := range r.Labels {
		if l >= 0 && l < len(sizes) {
			sizes[l]++
		}
	}
	return sizes
}

// ErrBadBandwidth reports a non-positive bandwidth.
var ErrBadBandwidth = errors.New("cluster: bandwidth must be positive")

// ErrDimensionMismatch reports points of unequal dimension.
var ErrDimensionMismatch = errors.New("cluster: points have mismatched dimensions")

func checkPoints(points []Point) error {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimensionMismatch, i, len(p), d)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cluster: point %d has non-finite coordinate", i)
			}
		}
	}
	return nil
}

// MeanShift clusters the points by iteratively shifting each seed to the
// mean of the points within the bandwidth (the flat kernel) until
// convergence, then merging modes that lie within half a bandwidth of
// each other.
//
// Every input point is a seed. Below denseCutoff points each mean scans
// every point; above it a uniform grid spatial index (cell edge =
// bandwidth) restricts each mean to the 3^d neighboring cells, which
// hold every point within the bandwidth, so the labels are those of the
// O(n²·iters) scan (reference_test.go keeps it as the oracle). Seeds
// shift in deterministic lockstep rounds, optionally in parallel; the
// final mode merge always runs in seed order, so results never depend on
// goroutine scheduling.
func MeanShift(points []Point, cfg MeanShiftConfig) (*Result, error) {
	if cfg.Bandwidth <= 0 || math.IsNaN(cfg.Bandwidth) {
		return nil, ErrBadBandwidth
	}
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return &Result{}, nil
	}
	c := cfg.withDefaults()
	sc := c.Scratch
	if sc == nil {
		sc = NewScratch()
	}

	e := &msEngine{
		n:  len(points),
		d:  len(points[0]),
		c:  c,
		sc: sc,
		h2: c.Bandwidth * c.Bandwidth,
	}
	e.tol2 = c.Tol * c.Tol
	e.stats.Points = e.n

	// Flatten the input into the contiguous backing store.
	e.coords = growF64(&sc.coords, e.n*e.d)
	for i, p := range points {
		copy(e.coords[i*e.d:(i+1)*e.d], p)
	}

	if e.d <= maxGridDim && e.n >= denseCutoff {
		e.g = buildGrid(e.coords, e.n, e.d, c.Bandwidth, sc)
		e.hasGrid = true
		e.stats.GridCells = e.g.nCells
		e.stats.Accelerated = true
	}

	// Every point is a seed: seed i starts on point i.
	e.seeds = growF64(&sc.seeds, e.n*e.d)
	copy(e.seeds, e.coords)
	e.run()
	res := e.finish()

	e.stats.Seeds = e.n
	recordTotals(&e.stats)
	if c.Stats != nil {
		*c.Stats = e.stats
	}
	return res, nil
}

// msEngine holds the state of one accelerated MeanShift run.
type msEngine struct {
	n, d    int
	coords  []float64 // n*d flattened input (read-only after flatten)
	c       MeanShiftConfig
	sc      *Scratch
	h2      float64
	tol2    float64
	g       grid
	hasGrid bool

	seeds []float64 // n*d, current positions (end state: modes)

	stats MeanShiftStats
}

// run executes the lockstep shift rounds. Each round shifts every still-
// active seed once (optionally across goroutines — seeds only read the
// immutable coordinate store and write their own slot, so rounds are
// race-free and deterministic), then a serial commit pass in ascending
// seed order applies convergence.
func (e *msEngine) run() {
	sc := e.sc
	d := e.d
	next := growF64(&sc.next, e.n*d)
	active := growI32(&sc.active, e.n)
	for i := range active {
		active[i] = int32(i)
	}

	workers := e.c.Workers
	if workers <= 0 {
		if e.n >= autoParallelSeeds {
			workers = parallel.DefaultWorkers()
		} else {
			workers = 1
		}
	}
	nChunks := 1
	if workers > 1 {
		nChunks = workers * 4
	}
	// Per-chunk probe scratch: base, offset and cell coordinates for the
	// neighbor odometer (3*d int64 each).
	probes := growI64(&sc.probes, nChunks*3*d)

	ctx := context.Background()
	for round := 0; round < e.c.MaxIter && len(active) > 0; round++ {
		e.stats.Rounds++
		e.stats.Iterations += len(active)

		if workers > 1 && len(active) >= parallelRoundCutoff {
			e.stats.Parallel = true
			act := active
			_ = parallel.ForEachCtx(ctx, workers, nChunks, func(ci int) {
				lo := ci * len(act) / nChunks
				hi := (ci + 1) * len(act) / nChunks
				pr := probes[ci*3*d : (ci+1)*3*d]
				for _, si := range act[lo:hi] {
					e.shiftOne(int(si), next, pr)
				}
			})
		} else {
			pr := probes[:3*d]
			for _, si := range active {
				e.shiftOne(int(si), next, pr)
			}
		}

		// Serial commit pass, ascending seed order: deterministic by
		// construction regardless of how the shifts were scheduled.
		w := 0
		for _, si := range active {
			cur := e.seeds[int(si)*d : (int(si)+1)*d]
			nxt := next[int(si)*d : (int(si)+1)*d]
			moved2 := dist2F(cur, nxt)
			copy(cur, nxt)
			if moved2 < e.tol2 {
				continue // converged
			}
			active[w] = si
			w++
		}
		active = active[:w]
	}
	// Seeds still active after MaxIter keep their last position as their
	// mode, matching the historical behavior.
}

// shiftOne writes into next the mean of the points within the bandwidth
// of seed si's current position. pr is a caller-owned probe scratch
// of length 3*d int64s (base, offset and cell coordinates of the grid
// odometer); it is untouched on the dense path.
func (e *msEngine) shiftOne(si int, next []float64, pr []int64) {
	d := e.d
	cur := e.seeds[si*d : (si+1)*d]
	out := next[si*d : (si+1)*d]
	for i := range out {
		out[i] = 0
	}
	var wsum float64
	if e.hasGrid {
		base := pr[:d]
		off := pr[d : 2*d]
		cell := pr[2*d : 3*d]
		quantizeInto(cur, e.g.inv, base)
		for i := range off {
			off[i] = -1
		}
		for {
			for i := range cell {
				cell[i] = base[i] + off[i]
			}
			wsum += e.accumulate(cur, out, e.g.bucket(cell))
			// Odometer over the 3^d neighbor offsets.
			k := 0
			for k < d {
				off[k]++
				if off[k] <= 1 {
					break
				}
				off[k] = -1
				k++
			}
			if k == d {
				break
			}
		}
	} else {
		wsum = e.accumulateDense(cur, out)
	}
	if wsum == 0 {
		// No neighbours (a seed starts on a point and moves to a mean of
		// points, so only a NaN-free input keeps this unreachable).
		copy(out, cur)
		return
	}
	inv := 1 / wsum
	for i := range out {
		out[i] *= inv
	}
}

// accumulate adds the coordinates of the candidate points within the
// bandwidth of center to out and returns how many there were.
func (e *msEngine) accumulate(center, out []float64, items []int32) float64 {
	if len(items) == 0 {
		return 0
	}
	d := e.d
	h2 := e.h2
	var wsum float64
	for _, pi := range items {
		p := e.coords[int(pi)*d : (int(pi)+1)*d]
		var d2 float64
		for i := range center {
			dd := center[i] - p[i]
			d2 += dd * dd
		}
		if d2 <= h2 { // the flat kernel
			wsum++
			for i := range out {
				out[i] += p[i]
			}
		}
	}
	return wsum
}

// accumulateDense is the all-points scan below denseCutoff, accumulating
// in ascending point order.
func (e *msEngine) accumulateDense(center, out []float64) float64 {
	d := e.d
	h2 := e.h2
	var wsum float64
	for pi := 0; pi < e.n; pi++ {
		p := e.coords[pi*d : (pi+1)*d]
		var d2 float64
		for i := range center {
			dd := center[i] - p[i]
			d2 += dd * dd
		}
		if d2 <= h2 { // the flat kernel
			wsum++
			for i := range out {
				out[i] += p[i]
			}
		}
	}
	return wsum
}

// finish merges the converged seed modes into cluster centers and
// labels every point with its own seed's cluster.
func (e *msEngine) finish() *Result {
	centers, seedLabels, nCenters := mergeModesFlat(e.seeds, e.n, e.d, e.c.Bandwidth, e.sc)
	labels := make([]int, e.n)
	for i := range labels {
		labels[i] = int(seedLabels[i])
	}
	return &Result{Labels: labels, Centers: centersToPoints(centers, nCenters, e.d)}
}

// centersToPoints copies the flat center store into the returned Result
// representation: point headers over one fresh contiguous backing array
// (scratch memory must not escape).
func centersToPoints(centers []float64, k, d int) []Point {
	back := make([]float64, k*d)
	copy(back, centers[:k*d])
	out := make([]Point, k)
	for i := range out {
		out[i] = back[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// mergeModesFlat collapses converged modes lying within bandwidth/2 of
// each other into single clusters, scanning modes in ascending seed
// order (stable merge order, independent of how seeds were scheduled).
// Matching the historical implementation, a cluster's center is the
// running average of its member modes. Returns the flat center store
// (scratch-owned), per-seed labels (scratch-owned) and the center count.
func mergeModesFlat(modes []float64, s, d int, bandwidth float64, sc *Scratch) ([]float64, []int32, int) {
	mergeR2 := (bandwidth / 2) * (bandwidth / 2)
	centers := growF64(&sc.centers, 0)
	weights := growI32(&sc.weights, 0)
	labels := growI32(&sc.active, s) // active worklist is free by now
	nCenters := 0
	for i := 0; i < s; i++ {
		m := modes[i*d : (i+1)*d]
		assigned := -1
		for ci := 0; ci < nCenters; ci++ {
			ctr := centers[ci*d : (ci+1)*d]
			var d2 float64
			for k := range m {
				dd := m[k] - ctr[k]
				d2 += dd * dd
			}
			if d2 <= mergeR2 {
				assigned = ci
				break
			}
		}
		if assigned < 0 {
			centers = append(centers, m...)
			weights = append(weights, 0)
			assigned = nCenters
			nCenters++
		} else {
			// Running average keeps the center representative of its
			// members rather than of the first mode found.
			w := float64(weights[assigned])
			ctr := centers[assigned*d : (assigned+1)*d]
			for k := range ctr {
				ctr[k] = (ctr[k]*w + m[k]) / (w + 1)
			}
		}
		weights[assigned]++
		labels[i] = int32(assigned)
	}
	sc.centers = centers
	sc.weights = weights
	return centers, labels, nCenters
}

// dist2F is Dist2 over flat coordinate slices.
func dist2F(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
