package main

import (
	"math"
	"sort"

	"spice/internal/analysis"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of percentiles a latency tail is reported at.
var tailLadder = []float64{50, 80, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten of the n samples beyond it — the highest one whose
// value is not set by a handful of outliers. ok is false when even the
// median has fewer than ten samples beyond it (n < 20).
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		// The small epsilon keeps 60*(1-0.8) from rounding down to 11.
		if beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9)); beyond >= 10 {
			pct, ok = p, true
		}
	}
	return pct, ok
}

// quartiles reproduces Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), which is what the benchmark's
// acceptance check computes run-to-run spread with. It needs at least
// two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of their
// median; 0 when there are fewer than two values or the median is 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := analysis.Median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
