package cluster

import "sync/atomic"

// Scratch is a bundle of reusable buffers for the clustering hot path.
// Passing the same Scratch to successive MeanShift calls (via
// MeanShiftConfig.Scratch) makes the per-call allocation count
// essentially independent of the input size: the flattened coordinate
// store, the seed trajectories, the grid index, and the mode-merge
// working set all live in the scratch and are grown geometrically, never
// shrunk.
//
// A Scratch is NOT safe for concurrent use; give each goroutine its own
// (internal/core keeps them in a sync.Pool, one per categorization
// worker). The zero value is not usable — call NewScratch.
type Scratch struct {
	coords  []float64 // flattened input points
	seeds   []float64 // seed positions, mutated in place
	next    []float64 // next-round positions
	centers []float64 // merge-phase center accumulator
	ptsBack []float64 // backing store handed out by Points
	pts     []Point   // point headers handed out by Points
	weights []int32   // merge-phase member counts
	active  []int32   // active seed worklist
	cellIDs []int32   // grid build: per-point cell id
	starts  []int32   // grid CSR starts
	items   []int32   // grid CSR items
	cursor  []int32   // grid build cursor
	qs      []int64   // quantization scratch
	probes  []int64   // per-chunk neighbor-probe odometers
	cellMap map[uint64]int32
}

// NewScratch returns an empty scratch ready for reuse across MeanShift
// calls.
func NewScratch() *Scratch { return &Scratch{} }

// Points returns a slice of n d-dimensional points backed by one
// contiguous scratch-owned float64 array. Callers fill the coordinates
// in place; the memory is reused by the next Points call, so the slice
// must not outlive the current clustering run.
func (s *Scratch) Points(n, d int) []Point {
	back := growF64(&s.ptsBack, n*d)
	if cap(s.pts) >= n {
		s.pts = s.pts[:n]
	} else {
		s.pts = make([]Point, n)
	}
	for i := 0; i < n; i++ {
		s.pts[i] = back[i*d : (i+1)*d : (i+1)*d]
	}
	return s.pts
}

// growF64 resizes *buf to length n, reusing capacity when possible.
func growF64(buf *[]float64, n int) []float64 {
	if cap(*buf) >= n {
		*buf = (*buf)[:n]
	} else {
		*buf = make([]float64, n, n+n/2)
	}
	return *buf
}

func growI32(buf *[]int32, n int) []int32 {
	if cap(*buf) >= n {
		*buf = (*buf)[:n]
	} else {
		*buf = make([]int32, n, n+n/2)
	}
	return *buf
}

func growI64(buf *[]int64, n int) []int64 {
	if cap(*buf) >= n {
		*buf = (*buf)[:n]
	} else {
		*buf = make([]int64, n, n+n/2)
	}
	return *buf
}

// MeanShiftStats reports the cost profile of one MeanShift call when a
// pointer to it is attached to MeanShiftConfig.Stats. The same figures
// are accumulated into package-wide totals (see TotalStats) that
// RegisterMetrics exports as mosaic_cluster_* metrics.
type MeanShiftStats struct {
	Points      int  // input points
	Seeds       int  // shifted seeds (== Points: every point is a seed)
	GridCells   int  // occupied grid cells (0 on the dense path)
	Rounds      int  // lockstep iteration rounds executed
	Iterations  int  // total kernel-mean evaluations across all seeds
	Parallel    bool // whether any round ran on multiple goroutines
	Accelerated bool // whether the grid index was used
}

// Package-wide clustering cost counters, exported to /metrics through
// RegisterMetrics. Atomic: MeanShift may run
// on many categorization workers at once.
var clusterTotals struct {
	runs, seeds, gridCells, iterations, parallelRuns atomic.Int64
}

// Totals is a snapshot of the package-wide clustering counters.
type Totals struct {
	Runs         int64 // MeanShift invocations
	Seeds        int64 // seeds shifted
	GridCells    int64 // occupied grid cells across runs
	Iterations   int64 // kernel-mean evaluations
	ParallelRuns int64 // runs that used multiple goroutines
}

// TotalStats returns the current package-wide clustering counters.
func TotalStats() Totals {
	return Totals{
		Runs:         clusterTotals.runs.Load(),
		Seeds:        clusterTotals.seeds.Load(),
		GridCells:    clusterTotals.gridCells.Load(),
		Iterations:   clusterTotals.iterations.Load(),
		ParallelRuns: clusterTotals.parallelRuns.Load(),
	}
}

func recordTotals(st *MeanShiftStats) {
	clusterTotals.runs.Add(1)
	clusterTotals.seeds.Add(int64(st.Seeds))
	clusterTotals.gridCells.Add(int64(st.GridCells))
	clusterTotals.iterations.Add(int64(st.Iterations))
	if st.Parallel {
		clusterTotals.parallelRuns.Add(1)
	}
}
