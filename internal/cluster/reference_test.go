package cluster

// ReferenceMeanShift is the O(n²) flat Mean Shift the accelerated
// MeanShift is held to, written as plainly as it runs: every point is a
// seed; each seed moves to the mean of all points within h, summed in
// point order, until it moves less than h/1000 or 300 times; modes merge
// in seed order into the first center within h/2 of them, a center being
// the running average of its modes; a point takes its seed's center.
// Exported for the external differential tests of this package.
func ReferenceMeanShift(points []Point, h float64) *Result {
	tol := h * 1e-3
	modes := make([]Point, len(points))
	for i, p := range points {
		x := append(Point(nil), p...)
		for it := 0; it < 300; it++ {
			next := make(Point, len(x))
			var n float64
			for _, q := range points {
				if Dist2(x, q) <= h*h {
					n++
					for k := range next {
						next[k] += q[k]
					}
				}
			}
			inv := 1 / n
			for k := range next {
				next[k] *= inv
			}
			moved := Dist2(x, next)
			x = next
			if moved < tol*tol {
				break
			}
		}
		modes[i] = x
	}
	res := &Result{Labels: make([]int, len(points))}
	var weights []float64
	for i, m := range modes {
		c := 0
		for c < len(res.Centers) && !(Dist2(m, res.Centers[c]) <= (h/2)*(h/2)) {
			c++
		}
		if c == len(res.Centers) {
			res.Centers = append(res.Centers, append(Point(nil), m...))
			weights = append(weights, 0)
		} else {
			w := weights[c]
			for k := range m {
				res.Centers[c][k] = (res.Centers[c][k]*w + m[k]) / (w + 1)
			}
		}
		weights[c]++
		res.Labels[i] = c
	}
	return res
}
