package interval_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/gen"
	"github.com/mosaic-hpc/mosaic/internal/interval"
)

// BenchmarkSortByStart sorts what categorization sorts: the clipped read
// and write operations, aggregate and DXT, of planned runs. At each length
// n every list at least that long gives its first n operations, in trace
// order. SortFunc is the comparison sort on (Start, End) that SortByStart
// must agree with, for reference.
func BenchmarkSortByStart(b *testing.B) {
	var lists [][]interval.Interval
	gen.Plan(gen.Profile{Apps: 600, MaxRunsPerApp: 3, Seed: 5}).Each(func(r gen.Run) bool {
		for _, write := range []bool{false, true} {
			for _, dxt := range []bool{false, true} {
				ivs, _ := r.Job.AppendIntervals(nil, write, dxt)
				ivs = slices.DeleteFunc(ivs, func(iv interval.Interval) bool { return iv.End <= 0 || iv.Start >= r.Job.Runtime })
				if interval.WellFormed(ivs) {
					lists = append(lists, ivs)
				}
			}
		}
		return true
	})
	byStart := func(a, b interval.Interval) int {
		if c := compareFloat(a.Start, b.Start); c != 0 {
			return c
		}
		return compareFloat(a.End, b.End)
	}
	for _, n := range []int{4, 8, 16, 32, 64, 256, 1024, 2048} {
		var in [][]interval.Interval
		for _, l := range lists {
			if len(l) >= n && len(in) < 64 {
				in = append(in, l[:n])
			}
		}
		buf := make([]interval.Interval, n)
		for _, sort := range []struct {
			name string
			fn   func([]interval.Interval)
		}{
			{"SortByStart", interval.SortByStart},
			{"SortFunc", func(ivs []interval.Interval) { slices.SortFunc(ivs, byStart) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, sort.name), func(b *testing.B) {
				if len(in) == 0 {
					b.Skipf("no list of %d operations", n)
				}
				for i := 0; i < b.N; i++ {
					copy(buf, in[i%len(in)])
					sort.fn(buf)
				}
			})
		}
	}
}

// compareFloat is cmp.Compare for NaN-free floats, with −0 equal to +0.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
