// Package analysis holds the small statistics the rest of the repo
// shares: moments and quantiles, block averaging, RMSD, a least-squares
// line fit, the paper's cost normalization of statistical errors, and a
// uniform histogram.
//
// The paper's Fig. 4 analysis compares statistical errors (σ_stat,
// which internal/jarzynski estimates by resampling whole trajectories)
// against systematic errors (σ_sys, the RMSD from a slow-pulling
// reference), with σ_stat normalized for computational cost across
// pulling velocities. The Fig. 3 strain profile is a Histogram; the
// Langevin substrate's diffusion check is a LinearFit. The package
// imports nothing else from this module.
package analysis

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one sample.
var ErrEmpty = errors.New("analysis: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance; 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean, StdDev/sqrt(n).
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if q <= 0 {
		return ys[0]
	}
	if q >= 1 {
		return ys[len(ys)-1]
	}
	pos := q * float64(len(ys)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(ys) {
		return ys[len(ys)-1]
	}
	return ys[i]*(1-frac) + ys[i+1]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// BlockAverage partitions xs into nblocks contiguous blocks, averages each,
// and returns the block means. Trailing samples that do not fill a block
// are folded into the final block. Used to decorrelate time series before
// error estimation.
func BlockAverage(xs []float64, nblocks int) []float64 {
	if nblocks <= 0 || len(xs) == 0 {
		return nil
	}
	if nblocks > len(xs) {
		nblocks = len(xs)
	}
	size := len(xs) / nblocks
	out := make([]float64, 0, nblocks)
	for b := 0; b < nblocks; b++ {
		lo := b * size
		hi := lo + size
		if b == nblocks-1 {
			hi = len(xs)
		}
		out = append(out, Mean(xs[lo:hi]))
	}
	return out
}

// CostNormalizedError rescales a statistical error measured with n samples
// at per-sample cost c to the error expected at reference budget refBudget:
// the affordable sample count is refBudget/c, and σ ∝ 1/sqrt(samples).
//
// This implements the paper's §IV normalization: "in the computational time
// that one sample at v of 12.5 Å/ns can be generated, eight samples at
// 100 Å/ns can be generated; thus the statistical error of the former should
// be set to sqrt(8) of the latter".
func CostNormalizedError(sigma float64, n int, perSampleCost, refBudget float64) float64 {
	if n <= 0 || perSampleCost <= 0 || refBudget <= 0 {
		return sigma
	}
	affordable := refBudget / perSampleCost
	if affordable <= 0 {
		return sigma
	}
	return sigma * math.Sqrt(float64(n)/affordable)
}

// RMSD returns the root-mean-square deviation between two equal-length
// series. It returns an error if the lengths differ or are zero.
func RMSD(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("analysis: RMSD length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// LinearFit fits y = a + b·x by least squares and returns intercept a,
// slope b. It returns an error for fewer than two points or degenerate x.
func LinearFit(x, y []float64) (a, b float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, errors.New("analysis: LinearFit needs >= 2 paired points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("analysis: LinearFit degenerate x")
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}
