package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: below that the percentile is one or two outliers, not a
// property of the system.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may report, highest
// first; the highest one with minBeyond samples beyond it is used.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90}

// rank is the 1-based nearest-rank position of the p-quantile among n
// sorted samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9)) // 0.99*1000 must not round up past 990
	return min(max(k, 1), n)
}

// reportable says whether the p-quantile of n samples has at least
// minBeyond samples beyond it.
func reportable(n int, p float64) bool { return n-rank(n, p) >= minBeyond }

// quantile returns the nearest-rank p-quantile of sorted samples.
func quantile(sorted []float64, p float64) float64 { return sorted[rank(len(sorted), p)-1] }

// timing is the summary of one latency sample: its size, its median and
// the highest reportable tail percentile (tailP == 0 when the sample
// supports none).
type timing struct {
	n     int
	p50   float64
	tailP float64
	tail  float64
}

// summarize reduces samples (any unit) to a timing. A sample too small
// for a median is an error: the run measured too little to say anything.
func summarize(name string, samples []float64) (timing, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if !reportable(len(s), 0.5) {
		return timing{n: len(s)}, fmt.Errorf("%s: %d samples are too few for a median (need %d beyond it)", name, len(s), minBeyond)
	}
	t := timing{n: len(s), p50: quantile(s, 0.5)}
	for _, p := range tailLadder {
		if reportable(len(s), p) {
			t.tailP, t.tail = p, quantile(s, p)
			break
		}
	}
	return t, nil
}

// median of a small set of repeated measurements (passes, restarts),
// where every value counts and the sample-count rule does not apply.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, Q2 and Q3 by the exclusive method, the one
// Python's statistics.quantiles(values, n=4) uses, so that the spreads
// printed by -repeat are the ones the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
