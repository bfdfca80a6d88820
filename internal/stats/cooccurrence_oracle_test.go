package stats_test

import (
	"sort"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
	"github.com/mosaic-hpc/mosaic/internal/core"
	"github.com/mosaic-hpc/mosaic/internal/experiments"
	"github.com/mosaic-hpc/mosaic/internal/stats"
)

// mapMatrix is the co-occurrence matrix as it was before a category set
// became one word: a label→position map, and per sample a slice of the
// positions present. Kept as the reference CoMatrix is checked against.
type mapMatrix struct {
	labels []category.Category
	index  map[category.Category]int
	both   [][]int
	count  []int
	total  int
}

func newMapMatrix(labels []category.Category) *mapMatrix {
	m := &mapMatrix{labels: labels, index: make(map[category.Category]int, len(labels))}
	for i, l := range labels {
		m.index[l] = i
	}
	m.both = make([][]int, len(labels))
	for i := range m.both {
		m.both[i] = make([]int, len(labels))
	}
	m.count = make([]int, len(labels))
	return m
}

func (m *mapMatrix) observe(labels []string) {
	m.total++
	present := make([]int, 0, len(labels))
	for _, l := range labels {
		if i, ok := m.index[category.Category(l)]; ok {
			present = append(present, i)
		}
	}
	sort.Ints(present)
	for _, i := range present {
		m.count[i]++
		for _, j := range present {
			m.both[i][j]++
		}
	}
}

func (m *mapMatrix) jaccard(i, j int) float64 {
	both := m.both[i][j]
	return stats.Jaccard(both, m.count[i]-both, m.count[j]-both)
}

// TestCoMatrixMatchesMapOracle feeds the corpus behind Figure 5 to both
// matrices — the reference from each result's label strings, CoMatrix
// from its set — and compares every entry and everything derived from it.
func TestCoMatrixMatchesMapOracle(t *testing.T) {
	cr, err := experiments.Run(experiments.ScaledProfile(1, 250), core.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	all := category.All()
	ref, got := newMapMatrix(all), new(stats.CoMatrix)
	for _, r := range cr.Results {
		ref.observe(r.Result.Labels)
		got.Observe(r.Result.Categories)
	}
	if got.Total() != ref.total || ref.total < 100 {
		t.Fatalf("observed %d samples, reference %d", got.Total(), ref.total)
	}
	jm := got.JaccardMatrix()
	populated := 0
	for i, a := range all {
		if got.Count(a) != ref.count[i] {
			t.Errorf("Count(%s) = %d, reference %d", a, got.Count(a), ref.count[i])
		}
		if ref.count[i] > 0 {
			populated++
		}
		for j, b := range all {
			if jm[i][j] != ref.jaccard(i, j) || got.Jaccard(a, b) != ref.jaccard(i, j) {
				t.Errorf("Jaccard(%s, %s) = %g (matrix %g), reference %g", a, b, got.Jaccard(a, b), jm[i][j], ref.jaccard(i, j))
			}
			want := 0.0
			if ref.count[i] > 0 {
				want = float64(ref.both[i][j]) / float64(ref.count[i])
			}
			if got.Conditional(b, a) != want {
				t.Errorf("P(%s | %s) = %g, reference %g", b, a, got.Conditional(b, a), want)
			}
		}
	}
	if populated < 10 {
		t.Fatalf("only %d categories occur in the corpus: the comparison covers too little", populated)
	}
	// The aggregator's own matrix saw the same results.
	if agg := cr.Agg.Co(); agg.Total() != ref.total || len(agg.TopPairs(0.01)) != len(got.TopPairs(0.01)) {
		t.Errorf("aggregator matrix: %d samples, %d pairs; want %d, %d", agg.Total(), len(agg.TopPairs(0.01)), ref.total, len(got.TopPairs(0.01)))
	}
}
