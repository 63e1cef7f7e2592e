package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"spice/internal/xrand"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	// Unbiased variance of that classic set is 32/7.
	if got, want := Variance(xs), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdErr(nil) != 0 {
		t.Fatal("empty inputs should yield 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("singleton variance should be 0")
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanShiftInvariance(t *testing.T) {
	f := func(xs []float64, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e6 || len(xs) == 0 {
			return true
		}
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
			clean = append(clean, x+c)
		}
		return math.Abs(Mean(clean)-(Mean(xs)+c)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
}

func TestBlockAverage(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 3, 3}
	blocks := BlockAverage(xs, 3)
	want := []float64{1, 2, 3}
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := range blocks {
		if blocks[i] != want[i] {
			t.Fatalf("blocks = %v", blocks)
		}
	}
	// Remainder folds into last block.
	blocks = BlockAverage([]float64{1, 2, 3, 4, 5}, 2)
	if len(blocks) != 2 || blocks[0] != 1.5 || blocks[1] != 4 {
		t.Fatalf("remainder blocks = %v", blocks)
	}
	// Degenerate cases.
	if BlockAverage(nil, 3) != nil || BlockAverage(xs, 0) != nil {
		t.Fatal("degenerate block average should be nil")
	}
}

func TestBlockAveragePreservesMean(t *testing.T) {
	rng := xrand.New(1)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, nb := range []int{1, 2, 4, 8, 16, 32} {
		blocks := BlockAverage(xs, nb)
		if math.Abs(Mean(blocks)-Mean(xs)) > 1e-10 {
			t.Fatalf("nb=%d: block mean %v != sample mean %v", nb, Mean(blocks), Mean(xs))
		}
	}
}

func TestCostNormalizedError(t *testing.T) {
	// Paper scenario: 8 samples at v=100 cost the same as 1 at v=12.5.
	// A σ measured from n=8 cheap samples, normalized to the budget of
	// 8 cheap samples, is unchanged.
	if got := CostNormalizedError(1.0, 8, 1, 8); got != 1.0 {
		t.Fatalf("identity normalization = %v", got)
	}
	// n=8 samples at cost 1 normalized to a budget that affords only 1
	// sample: error grows by sqrt(8).
	got := CostNormalizedError(1.0, 8, 1, 1)
	if math.Abs(got-math.Sqrt(8)) > 1e-12 {
		t.Fatalf("sqrt(8) normalization = %v", got)
	}
	// Degenerate inputs pass through.
	if CostNormalizedError(2.5, 0, 1, 1) != 2.5 || CostNormalizedError(2.5, 8, 0, 1) != 2.5 {
		t.Fatal("degenerate inputs should pass through")
	}
}

func TestRMSD(t *testing.T) {
	got, err := RMSD([]float64{1, 2, 3}, []float64{1, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(16.0 / 3.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSD = %v, want %v", got, want)
	}
	if _, err := RMSD([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := RMSD(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	a, b, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Fatalf("fit = %v + %v x", a, b)
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("degenerate x should error")
	}
}
