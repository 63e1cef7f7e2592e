package jarzynski

import (
	"math"
	"testing"

	"spice/internal/trace"
	"spice/internal/units"
	"spice/internal/xrand"
)

// syntheticLogs builds work logs where W(λ) is Gaussian with mean mu(λ)
// and stddev sd(λ) — the analytically solvable case.
func syntheticLogs(n int, grid []float64, mu, sd func(float64) float64, rng *xrand.Source) []*trace.WorkLog {
	logs := make([]*trace.WorkLog, n)
	for t := 0; t < n; t++ {
		wl := &trace.WorkLog{Kappa: 1.44, Velocity: 0.0125, Seed: uint64(t)}
		// One Gaussian draw per trajectory, scaled along the grid, so the
		// trajectory is internally correlated like real SMD work curves.
		z := rng.NormFloat64()
		for _, g := range grid {
			wl.Samples = append(wl.Samples, trace.WorkSample{
				Lambda: g,
				Z:      g,
				Work:   mu(g) + sd(g)*z,
			})
		}
		logs[t] = wl
	}
	return logs
}

func uniformGrid(lo, hi float64, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return g
}

func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(300, nil); err == nil {
		t.Fatal("empty ensemble accepted")
	}
	short := &trace.WorkLog{Samples: []trace.WorkSample{{}}}
	if _, err := NewEnsemble(300, []*trace.WorkLog{short}); err == nil {
		t.Fatal("single-sample log accepted")
	}
	// Mismatched protocols rejected.
	grid := uniformGrid(0, 10, 11)
	rng := xrand.New(1)
	logs := syntheticLogs(2, grid, func(float64) float64 { return 0 }, func(float64) float64 { return 1 }, rng)
	logs[1].Kappa *= 2
	if _, err := NewEnsemble(300, logs); err == nil {
		t.Fatal("mixed-protocol ensemble accepted")
	}
}

func TestGaussianWorkExponentialEstimator(t *testing.T) {
	// For W ~ N(μ, σ²): ΔF = μ - βσ²/2 exactly.
	beta := units.Beta(300)
	mu := func(g float64) float64 { return 2 * g }
	sd := func(g float64) float64 { return 0.3 * math.Sqrt(g) } // grows along pull
	grid := uniformGrid(0, 10, 21)
	rng := xrand.New(2)
	logs := syntheticLogs(20000, grid, mu, sd, rng)
	e, err := NewEnsemble(300, logs)
	if err != nil {
		t.Fatal(err)
	}
	pmf, err := e.PMF(Exponential)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grid {
		want := mu(g) - beta*sd(g)*sd(g)/2 // anchored: mu(0)=0
		if math.Abs(pmf[i]-want) > 0.05 {
			t.Fatalf("grid %v: JE = %v, want %v", g, pmf[i], want)
		}
	}
}

func TestGaussianWorkCumulant2Exact(t *testing.T) {
	beta := units.Beta(300)
	mu := func(g float64) float64 { return -1.5 * g }
	sd := func(g float64) float64 { return 0.5 * g }
	grid := uniformGrid(0, 8, 17)
	rng := xrand.New(3)
	logs := syntheticLogs(5000, grid, mu, sd, rng)
	e, err := NewEnsemble(300, logs)
	if err != nil {
		t.Fatal(err)
	}
	pmf, err := e.PMF(Cumulant2)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grid {
		want := mu(g) - beta*sd(g)*sd(g)/2
		// Variance estimation error with 5000 samples dominates the
		// tolerance: Var·sqrt(2/n)·β/2 ≈ 0.1 at the largest g.
		if math.Abs(pmf[i]-want) > 0.3 {
			t.Fatalf("grid %v: C2 = %v, want %v", g, pmf[i], want)
		}
	}
}

func TestCumulant1IsMeanWorkAndUpperBound(t *testing.T) {
	grid := uniformGrid(0, 5, 6)
	rng := xrand.New(4)
	logs := syntheticLogs(2000, grid, func(g float64) float64 { return g }, func(g float64) float64 { return 0.4 * g }, rng)
	e, _ := NewEnsemble(300, logs)
	c1, _ := e.PMF(Cumulant1)
	je, _ := e.PMF(Exponential)
	for i := range grid {
		if c1[i] < je[i]-1e-9 {
			t.Fatalf("second law violated: <W>=%v < ΔF_JE=%v at %v", c1[i], je[i], grid[i])
		}
	}
}

func TestZeroVarianceAllEstimatorsAgree(t *testing.T) {
	grid := uniformGrid(0, 5, 11)
	rng := xrand.New(5)
	logs := syntheticLogs(50, grid, func(g float64) float64 { return 3 * g }, func(float64) float64 { return 0 }, rng)
	e, _ := NewEnsemble(300, logs)
	for _, est := range []Estimator{Exponential, Cumulant1, Cumulant2} {
		pmf, err := e.PMF(est)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range grid {
			if math.Abs(pmf[i]-3*g) > 1e-9 {
				t.Fatalf("%v: pmf(%v) = %v, want %v", est, g, pmf[i], 3*g)
			}
		}
	}
}

func TestPMFAnchoredAtZero(t *testing.T) {
	grid := uniformGrid(0, 5, 6)
	rng := xrand.New(6)
	logs := syntheticLogs(100, grid, func(g float64) float64 { return 7 + g }, func(float64) float64 { return 0.1 }, rng)
	e, _ := NewEnsemble(300, logs)
	pmf, _ := e.PMF(Exponential)
	if pmf[0] != 0 {
		t.Fatalf("PMF not anchored: %v", pmf[0])
	}
}

func TestStatErrorShrinksWithSamples(t *testing.T) {
	grid := uniformGrid(0, 5, 11)
	mu := func(g float64) float64 { return g }
	// sd must vary along the grid: the profile anchor at grid[0] cancels
	// any noise that is constant along a trajectory.
	sd := func(g float64) float64 { return 0.3 * g }
	small, _ := NewEnsemble(300, syntheticLogs(8, grid, mu, sd, xrand.New(7)))
	large, _ := NewEnsemble(300, syntheticLogs(128, grid, mu, sd, xrand.New(8)))
	sSmall, err := small.MeanStatError(Cumulant2, 200, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	sLarge, err := large.MeanStatError(Cumulant2, 200, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if sLarge >= sSmall {
		t.Fatalf("error did not shrink: n=8 σ=%v, n=128 σ=%v", sSmall, sLarge)
	}
	// Rough 1/sqrt(n) scaling: ratio ~ 4, accept [2, 8].
	ratio := sSmall / sLarge
	if ratio < 2 || ratio > 8 {
		t.Fatalf("σ ratio = %v, want ~4", ratio)
	}
}

func TestStatErrorRequiresData(t *testing.T) {
	grid := uniformGrid(0, 5, 6)
	one, _ := NewEnsemble(300, syntheticLogs(1, grid, func(g float64) float64 { return g }, func(float64) float64 { return 1 }, xrand.New(11)))
	if _, err := one.StatError(Exponential, 100, xrand.New(12)); err == nil {
		t.Fatal("single-trajectory error estimate accepted")
	}
	two, _ := NewEnsemble(300, syntheticLogs(2, grid, func(g float64) float64 { return g }, func(float64) float64 { return 1 }, xrand.New(13)))
	if _, err := two.StatError(Exponential, 1, xrand.New(14)); err == nil {
		t.Fatal("single resample accepted")
	}
}

func TestCostNormalizedStatError(t *testing.T) {
	grid := uniformGrid(0, 5, 6)
	mu := func(g float64) float64 { return g }
	sd := func(float64) float64 { return 0.5 }
	// Same data, but a fast-pull ensemble (v=0.1) normalized to the
	// budget of one slow sample (v=0.0125): 1 fast sample costs 1/8 of a
	// slow one, so its error must be scaled up by sqrt(n/8) when n
	// samples were used.
	e, _ := NewEnsemble(300, syntheticLogs(8, grid, mu, sd, xrand.New(15)))
	e.Velocity = 0.1
	raw, err := e.MeanStatError(Cumulant2, 400, xrand.New(16))
	if err != nil {
		t.Fatal(err)
	}
	norm, err := e.CostNormalizedStatError(Cumulant2, 400, xrand.New(16), 0.0125)
	if err != nil {
		t.Fatal(err)
	}
	// Budget = 1 slow sample = 8 fast samples; n = 8 → factor 1.
	if math.Abs(norm-raw)/raw > 0.2 {
		t.Fatalf("normalization at equal budget changed σ: raw=%v norm=%v", raw, norm)
	}
	// Slow ensemble with 8 samples vs budget of 1 slow sample: ×sqrt(8).
	e2, _ := NewEnsemble(300, syntheticLogs(8, grid, mu, sd, xrand.New(17)))
	e2.Velocity = 0.0125
	raw2, _ := e2.MeanStatError(Cumulant2, 400, xrand.New(18))
	norm2, _ := e2.CostNormalizedStatError(Cumulant2, 400, xrand.New(18), 0.0125)
	if math.Abs(norm2-raw2*math.Sqrt(8))/norm2 > 0.1 {
		t.Fatalf("slow ensemble: raw=%v norm=%v, want ×sqrt(8)", raw2, norm2)
	}
}

func TestSystematicError(t *testing.T) {
	pmf := []float64{0, 1, 2, 3}
	ref := []float64{5, 6, 7, 8} // same shape, different offset
	s, err := SystematicError(pmf, ref)
	if err != nil {
		t.Fatal(err)
	}
	if s > 1e-12 {
		t.Fatalf("offset-only deviation should anchor away: %v", s)
	}
	ref2 := []float64{0, 2, 4, 6}
	s2, err := SystematicError(pmf, ref2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 <= 0 {
		t.Fatal("real deviation not detected")
	}
	if _, err := SystematicError(pmf, ref2[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDissipatedWorkGrowsWithNoise(t *testing.T) {
	grid := uniformGrid(0, 5, 6)
	mu := func(g float64) float64 { return g }
	quiet, _ := NewEnsemble(300, syntheticLogs(3000, grid, mu, func(float64) float64 { return 0.1 }, xrand.New(19)))
	noisy, _ := NewEnsemble(300, syntheticLogs(3000, grid, mu, func(float64) float64 { return 1.0 }, xrand.New(20)))
	dq, err := quiet.DissipatedWork()
	if err != nil {
		t.Fatal(err)
	}
	dn, err := noisy.DissipatedWork()
	if err != nil {
		t.Fatal(err)
	}
	if dn[len(dn)-1] <= dq[len(dq)-1] {
		t.Fatalf("dissipation should grow with work variance: %v vs %v", dn[len(dn)-1], dq[len(dq)-1])
	}
}

func TestInterpolationOntoGrid(t *testing.T) {
	// Second log has twice the sampling rate; ensemble uses first's grid.
	coarse := &trace.WorkLog{Kappa: 1, Velocity: 1}
	fine := &trace.WorkLog{Kappa: 1, Velocity: 1}
	for i := 0; i <= 4; i++ {
		coarse.Samples = append(coarse.Samples, trace.WorkSample{Lambda: float64(i), Work: float64(i) * 2})
	}
	for i := 0; i <= 8; i++ {
		fine.Samples = append(fine.Samples, trace.WorkSample{Lambda: float64(i) / 2, Work: float64(i)})
	}
	e, err := NewEnsemble(300, []*trace.WorkLog{coarse, fine})
	if err != nil {
		t.Fatal(err)
	}
	// Both logs represent W = 2λ; columns must agree.
	for g := range e.Grid {
		if math.Abs(e.Work[0][g]-e.Work[1][g]) > 1e-9 {
			t.Fatalf("interpolation mismatch at %v: %v vs %v", e.Grid[g], e.Work[0][g], e.Work[1][g])
		}
	}
	// A log that ends early must be rejected.
	short := &trace.WorkLog{Kappa: 1, Velocity: 1}
	for i := 0; i <= 2; i++ {
		short.Samples = append(short.Samples, trace.WorkSample{Lambda: float64(i), Work: 0})
	}
	if _, err := NewEnsemble(300, []*trace.WorkLog{coarse, short}); err == nil {
		t.Fatal("short log accepted")
	}
}

func TestStitch(t *testing.T) {
	// Two 2-Å segments with local grids [0,1,2].
	seg1 := []float64{0, 1, 2}
	seg2 := []float64{0, -1, -2}
	grids := [][]float64{{0, 1, 2}, {0, 1, 2}}
	offsets := []float64{0, 2}
	grid, pmf, err := Stitch([][]float64{seg1, seg2}, grids, offsets)
	if err != nil {
		t.Fatal(err)
	}
	wantGrid := []float64{0, 1, 2, 3, 4}
	wantPMF := []float64{0, 1, 2, 1, 0}
	if len(grid) != len(wantGrid) {
		t.Fatalf("grid = %v", grid)
	}
	for i := range grid {
		if math.Abs(grid[i]-wantGrid[i]) > 1e-12 || math.Abs(pmf[i]-wantPMF[i]) > 1e-12 {
			t.Fatalf("stitched (%v, %v), want (%v, %v)", grid[i], pmf[i], wantGrid[i], wantPMF[i])
		}
	}
	if _, _, err := Stitch(nil, nil, nil); err == nil {
		t.Fatal("empty stitch accepted")
	}
	if _, _, err := Stitch([][]float64{seg1}, grids, offsets); err == nil {
		t.Fatal("mismatched stitch accepted")
	}
}

func TestEstimatorString(t *testing.T) {
	if Exponential.String() != "exponential" || Cumulant1.String() != "cumulant1" || Cumulant2.String() != "cumulant2" {
		t.Fatal("estimator labels wrong")
	}
	// ParseEstimator inverts String and refuses every other name.
	for _, e := range []Estimator{Exponential, Cumulant1, Cumulant2} {
		if got, err := ParseEstimator(e.String()); err != nil || got != e {
			t.Fatalf("ParseEstimator(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
	}
	for _, name := range []string{"", "Cumulant2", "estimator(3)", "jarzynski"} {
		if _, err := ParseEstimator(name); err == nil {
			t.Fatalf("ParseEstimator(%q) accepted an unknown name", name)
		}
	}
}
