package cluster

// AdjustedRandIndex compares two labelings of the same points; 1 means
// identical partitions, ~0 means random agreement. The Mean Shift tests use
// it to score detected groups against generator ground truth.
func AdjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := len(a)
	relabel := func(xs []int) ([]int, int) {
		m := make(map[int]int)
		out := make([]int, len(xs))
		for i, x := range xs {
			id, ok := m[x]
			if !ok {
				id = len(m)
				m[x] = id
			}
			out[i] = id
		}
		return out, len(m)
	}
	la, ka := relabel(a)
	lb, kb := relabel(b)
	cont := make([][]int, ka)
	for i := range cont {
		cont[i] = make([]int, kb)
	}
	rows := make([]int, ka)
	cols := make([]int, kb)
	for i := 0; i < n; i++ {
		cont[la[i]][lb[i]]++
		rows[la[i]]++
		cols[lb[i]]++
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	var sumIJ, sumA, sumB float64
	for i := range cont {
		for j := range cont[i] {
			sumIJ += choose2(cont[i][j])
		}
	}
	for _, r := range rows {
		sumA += choose2(r)
	}
	for _, c := range cols {
		sumB += choose2(c)
	}
	nC2 := choose2(n)
	if nC2 == 0 {
		return 0
	}
	expected := sumA * sumB / nC2
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1 // both partitions trivial (all singletons or all one cluster)
	}
	return (sumIJ - expected) / (maxIdx - expected)
}
