package cluster

import "math"

// Uniform grid spatial index over a flattened point store.
//
// The grid quantizes d-dimensional points into axis-aligned cells whose
// edge equals the Mean Shift bandwidth h. Every point within distance h
// of a query point then lies in one of the 3^d cells surrounding the
// query's cell, so a kernel-mean evaluation visits only those buckets
// instead of the whole data set — the standard route to near-linear
// mean shift (scikit-learn's radius-neighbors queries use the same idea).
//
// Cells are identified by the hash of their quantized integer
// coordinates. Hash collisions merge two buckets; that is harmless for
// correctness (the kernel always re-checks the true distance, and a
// point's own bucket is always probed under the same hash) and merely
// costs a few extra distance evaluations, but with a 64-bit avalanche
// hash collisions are astronomically unlikely in practice.
//
// Storage is CSR-style and allocation-lean: one map from cell hash to a
// dense cell id, one starts array, and one items array holding point
// indices grouped by cell. Within a cell, items keep ascending point
// order, which makes every grid traversal deterministic.
type grid struct {
	d      int
	inv    float64          // 1 / cell edge
	cells  map[uint64]int32 // cell hash -> dense cell id
	starts []int32          // len nCells+1; bucket c is items[starts[c]:starts[c+1]]
	items  []int32          // point indices grouped by cell, ascending within a cell
	nCells int
}

// maxGridDim bounds the dimensionality the grid accelerates: the
// neighbor probe count grows as (2r+1)^d, so past this the dense scan
// wins. MOSAIC's feature space is 2-D; this is pure safety margin.
const maxGridDim = 12

// quantizeCoord maps one coordinate to its integer cell index, clamped
// so that extreme coordinate/bandwidth ratios cannot overflow int64.
func quantizeCoord(v, inv float64) int64 {
	f := math.Floor(v * inv)
	const lim = 9.2e18
	if f > lim {
		f = lim
	} else if f < -lim {
		f = -lim
	}
	return int64(f)
}

// quantizeInto writes the cell coordinates of point p into qs.
func quantizeInto(p []float64, inv float64, qs []int64) {
	for i, v := range p {
		qs[i] = quantizeCoord(v, inv)
	}
}

// hashCell hashes quantized cell coordinates with an FNV-style mix and
// a final avalanche so neighboring cells scatter across the table.
func hashCell(qs []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, q := range qs {
		h ^= uint64(q)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// buildGrid indexes n points of dimension d stored flattened in coords
// (point i occupies coords[i*d : (i+1)*d]) into cells of the given edge.
// All backing storage comes from the scratch, so repeated builds reuse
// memory.
func buildGrid(coords []float64, n, d int, cell float64, sc *Scratch) grid {
	g := grid{d: d, inv: 1 / cell}
	if sc.cellMap == nil {
		sc.cellMap = make(map[uint64]int32, n)
	} else {
		clear(sc.cellMap)
	}
	g.cells = sc.cellMap
	cellIDs := growI32(&sc.cellIDs, n)
	qs := growI64(&sc.qs, d)

	// Pass 1: assign dense cell ids in first-occurrence order.
	for i := 0; i < n; i++ {
		quantizeInto(coords[i*d:(i+1)*d], g.inv, qs)
		h := hashCell(qs)
		id, ok := g.cells[h]
		if !ok {
			id = int32(g.nCells)
			g.nCells++
			g.cells[h] = id
		}
		cellIDs[i] = id
	}

	// Pass 2: CSR fill (counting sort by cell id; stable, so items stay
	// in ascending point order within each cell).
	starts := growI32(&sc.starts, g.nCells+1)
	for i := range starts {
		starts[i] = 0
	}
	for i := 0; i < n; i++ {
		starts[cellIDs[i]+1]++
	}
	for c := 0; c < g.nCells; c++ {
		starts[c+1] += starts[c]
	}
	items := growI32(&sc.items, n)
	cursor := growI32(&sc.cursor, g.nCells)
	copy(cursor, starts[:g.nCells])
	for i := 0; i < n; i++ {
		c := cellIDs[i]
		items[cursor[c]] = int32(i)
		cursor[c]++
	}
	g.starts = starts
	g.items = items
	return g
}

// bucket returns the point indices stored in the cell with the given
// quantized coordinates, or nil when the cell is empty.
func (g *grid) bucket(qs []int64) []int32 {
	id, ok := g.cells[hashCell(qs)]
	if !ok {
		return nil
	}
	return g.items[g.starts[id]:g.starts[id+1]]
}
