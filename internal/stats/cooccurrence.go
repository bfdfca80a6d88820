package stats

import (
	"math/bits"
	"sort"

	"github.com/mosaic-hpc/mosaic/internal/category"
)

// CoMatrix is a symmetric category co-occurrence matrix over a population
// of category sets, from which Jaccard indices and conditional rates are
// derived. It backs the Figure 5 heatmap and the Section IV-D correlation
// statements. Rows and columns are the closed taxonomy in category.All()
// order — a category's bit number in a set is its row; the zero value is
// an empty matrix.
type CoMatrix struct {
	both  [category.N][category.N]int // both[i][j]: samples in i and j
	count [category.N]int             // count[i]: samples in i
	total int                         // population size
}

// Observe adds one sample's category set to the matrix.
func (m *CoMatrix) Observe(s category.Set) {
	m.total++
	members := uint64(s & category.Closed)
	for a := members; a != 0; a &= a - 1 {
		i := bits.TrailingZeros64(a)
		m.count[i]++
		for b := members; b != 0; b &= b - 1 {
			m.both[i][bits.TrailingZeros64(b)]++
		}
	}
}

// Total returns the number of observed samples.
func (m *CoMatrix) Total() int { return m.total }

// Count returns how many samples carry category c.
func (m *CoMatrix) Count(c category.Category) int {
	if i, ok := c.Bit(); ok {
		return m.count[i]
	}
	return 0
}

// Rate returns the fraction of samples carrying category c.
func (m *CoMatrix) Rate(c category.Category) float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.Count(c)) / float64(m.total)
}

// Jaccard returns the Jaccard index between the sample sets of two
// categories: |A∩B| / |A∪B|.
func (m *CoMatrix) Jaccard(a, b category.Category) float64 {
	i, ok1 := a.Bit()
	j, ok2 := b.Bit()
	if !ok1 || !ok2 {
		return 0
	}
	both := m.both[i][j]
	return Jaccard(both, m.count[i]-both, m.count[j]-both)
}

// Conditional returns P(b | a) over the observed population.
func (m *CoMatrix) Conditional(b, a category.Category) float64 {
	i, ok1 := a.Bit()
	j, ok2 := b.Bit()
	if !ok1 || !ok2 || m.count[i] == 0 {
		return 0
	}
	return float64(m.both[i][j]) / float64(m.count[i])
}

// JaccardMatrix materializes the full pairwise Jaccard matrix in
// category.All() order. The diagonal is 1 for categories with at least one
// sample.
func (m *CoMatrix) JaccardMatrix() [][]float64 {
	out := make([][]float64, category.N)
	for i := range out {
		out[i] = make([]float64, category.N)
		for j := range out[i] {
			both := m.both[i][j]
			out[i][j] = Jaccard(both, m.count[i]-both, m.count[j]-both)
		}
	}
	return out
}

// Pair is one off-diagonal entry of the Jaccard matrix.
type Pair struct {
	A, B    category.Category
	Jaccard float64
}

// TopPairs returns the off-diagonal category pairs with Jaccard index of
// at least threshold, sorted by decreasing index. Mirrors the paper's
// "only values higher than 1% are shown" filtering of Figure 5.
func (m *CoMatrix) TopPairs(threshold float64) []Pair {
	var out []Pair
	labels := category.All()
	for i := range labels {
		for j := i + 1; j < len(labels); j++ {
			both := m.both[i][j]
			jc := Jaccard(both, m.count[i]-both, m.count[j]-both)
			if jc >= threshold {
				out = append(out, Pair{A: labels[i], B: labels[j], Jaccard: jc})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Jaccard > out[b].Jaccard })
	return out
}
