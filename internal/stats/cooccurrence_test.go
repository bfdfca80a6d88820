package stats

import (
	"math"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/category"
)

const (
	catA = category.Category("read_on_start")
	catB = category.Category("write_on_end")
	catC = category.Category("metadata_high_spike")
)

func observeMany(m *CoMatrix, sets ...[]category.Category) {
	for _, s := range sets {
		m.Observe(category.NewSet(s...))
	}
}

func TestCoMatrixCounts(t *testing.T) {
	m := new(CoMatrix)
	observeMany(m,
		[]category.Category{catA, catB},
		[]category.Category{catA},
		[]category.Category{catB},
		[]category.Category{},
	)
	if m.Total() != 4 {
		t.Fatalf("Total = %d", m.Total())
	}
	if m.Count(catA) != 2 || m.Count(catB) != 2 || m.Count(catC) != 0 {
		t.Fatal("counts wrong")
	}
	if got := m.Rate(catA); got != 0.5 {
		t.Fatalf("Rate = %g", got)
	}
}

func TestCoMatrixJaccard(t *testing.T) {
	m := new(CoMatrix)
	observeMany(m,
		[]category.Category{catA, catB}, // both
		[]category.Category{catA},       // only A
		[]category.Category{catB},       // only B
		[]category.Category{catB},       // only B
	)
	// |A∩B| = 1, |A∪B| = 4
	if got := m.Jaccard(catA, catB); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Jaccard = %g, want 0.25", got)
	}
	if got := m.Jaccard(catA, catA); got != 1 {
		t.Fatalf("self Jaccard = %g", got)
	}
	if got := m.Jaccard(catA, "unknown"); got != 0 {
		t.Fatalf("unknown label Jaccard = %g", got)
	}
}

func TestCoMatrixConditional(t *testing.T) {
	m := new(CoMatrix)
	observeMany(m,
		[]category.Category{catA, catB},
		[]category.Category{catA, catB},
		[]category.Category{catA},
	)
	// P(B | A) = 2/3
	if got := m.Conditional(catB, catA); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Conditional = %g", got)
	}
	// P(A | B) = 1
	if got := m.Conditional(catA, catB); got != 1 {
		t.Fatalf("Conditional = %g", got)
	}
}

func TestJaccardMatrixSymmetry(t *testing.T) {
	m := new(CoMatrix)
	observeMany(m,
		[]category.Category{catA, catB, catC},
		[]category.Category{catA, catC},
		[]category.Category{catB},
	)
	jm := m.JaccardMatrix()
	for i := range jm {
		for j := range jm {
			if jm[i][j] != jm[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			if jm[i][j] < 0 || jm[i][j] > 1 {
				t.Fatalf("matrix value out of range: %g", jm[i][j])
			}
		}
		if m.Count(category.All()[i]) > 0 && jm[i][i] != 1 {
			t.Fatalf("diagonal for populated label = %g", jm[i][i])
		}
	}
}

func TestTopPairs(t *testing.T) {
	m := new(CoMatrix)
	for i := 0; i < 10; i++ {
		m.Observe(category.NewSet(catA, catB))
	}
	m.Observe(category.NewSet(catC))
	pairs := m.TopPairs(0.01)
	if len(pairs) != 1 {
		t.Fatalf("TopPairs = %v", pairs)
	}
	if pairs[0].A != catA || pairs[0].B != catB || pairs[0].Jaccard != 1 {
		t.Fatalf("top pair = %+v", pairs[0])
	}
	if got := m.TopPairs(1.1); len(got) != 0 {
		t.Fatal("threshold above 1 should return nothing")
	}
}

func TestTopPairsSorted(t *testing.T) {
	m := new(CoMatrix)
	observeMany(m,
		[]category.Category{catA, catB, catC},
		[]category.Category{catA, catB},
		[]category.Category{catA, catC},
		[]category.Category{catC},
	)
	pairs := m.TopPairs(0)
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Jaccard < pairs[i].Jaccard {
			t.Fatal("pairs not sorted by decreasing Jaccard")
		}
	}
}
