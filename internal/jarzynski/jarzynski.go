// Package jarzynski is SPICE's core algorithmic contribution: it converts
// ensembles of non-equilibrium SMD work profiles into equilibrium free
// energy profiles (the PMF Φ along the pore axis) via Jarzynski's equality
//
//	exp(-βΔF) = ⟨exp(-βW)⟩,
//
// together with the error analysis the paper's Fig. 4 is built on —
// bootstrap statistical errors normalized for computational cost, and
// systematic errors measured against a reference profile — and the
// (κ, v) parameter optimization of §IV.
package jarzynski

import (
	"errors"
	"fmt"
	"math"

	"spice/internal/analysis"
	"spice/internal/trace"
	"spice/internal/units"
	"spice/internal/xrand"
)

// Estimator selects how ΔF is extracted from the work ensemble.
type Estimator int

// Estimators.
const (
	// Exponential is the exact Jarzynski average. Unbiased for
	// infinitely many samples but dominated by rare low-work
	// trajectories at finite N.
	Exponential Estimator = iota
	// Cumulant1 is the mean work ⟨W⟩ — an upper bound on ΔF by the
	// second law; exact only in the adiabatic limit.
	Cumulant1
	// Cumulant2 is the second-order cumulant expansion
	// ⟨W⟩ - β·Var(W)/2 — exact for Gaussian work distributions (the
	// stiff-spring regime) and far lower variance than Exponential.
	Cumulant2
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case Exponential:
		return "exponential"
	case Cumulant1:
		return "cumulant1"
	case Cumulant2:
		return "cumulant2"
	default:
		return fmt.Sprintf("estimator(%d)", int(e))
	}
}

// ParseEstimator is the inverse of String over the three estimators.
func ParseEstimator(name string) (Estimator, error) {
	for _, e := range []Estimator{Exponential, Cumulant1, Cumulant2} {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown estimator %q", name)
}

// Ensemble is a set of work profiles from repeated pulls with identical
// protocol parameters, interpolated onto a common displacement grid.
type Ensemble struct {
	Temp float64 // K
	// Grid holds the COM displacements (Å) the profiles are sampled at.
	Grid []float64
	// Work[t][g] is trajectory t's accumulated work at Grid[g], kcal/mol.
	Work [][]float64
	// Kappa/Velocity tag the protocol (internal units).
	Kappa    float64
	Velocity float64
}

// NewEnsemble builds an ensemble from work logs, interpolating every log
// onto the displacement grid of the first. All logs must share protocol
// parameters within tolerance.
func NewEnsemble(temp float64, logs []*trace.WorkLog) (*Ensemble, error) {
	if len(logs) == 0 {
		return nil, errors.New("jarzynski: empty ensemble")
	}
	first := logs[0]
	if len(first.Samples) < 2 {
		return nil, errors.New("jarzynski: work log has fewer than 2 samples")
	}
	grid := make([]float64, len(first.Samples))
	for i, s := range first.Samples {
		grid[i] = s.Lambda
	}
	e := &Ensemble{Temp: temp, Grid: grid, Kappa: first.Kappa, Velocity: first.Velocity}
	const tol = 1e-9
	for t, wl := range logs {
		if math.Abs(wl.Kappa-first.Kappa) > tol*math.Abs(first.Kappa) ||
			math.Abs(wl.Velocity-first.Velocity) > tol*math.Abs(first.Velocity) {
			return nil, fmt.Errorf("jarzynski: log %d has protocol (κ=%g, v=%g), ensemble has (κ=%g, v=%g)",
				t, wl.Kappa, wl.Velocity, first.Kappa, first.Velocity)
		}
		w, err := interpolateWork(wl, grid)
		if err != nil {
			return nil, fmt.Errorf("jarzynski: log %d: %w", t, err)
		}
		e.Work = append(e.Work, w)
	}
	return e, nil
}

// interpolateWork linearly interpolates a log's work onto grid.
func interpolateWork(wl *trace.WorkLog, grid []float64) ([]float64, error) {
	n := len(wl.Samples)
	if n < 2 {
		return nil, errors.New("fewer than 2 samples")
	}
	out := make([]float64, len(grid))
	j := 0
	for i, g := range grid {
		for j+1 < n && wl.Samples[j+1].Lambda < g {
			j++
		}
		if j+1 >= n {
			last := wl.Samples[n-1]
			if g > last.Lambda+1e-6 {
				return nil, fmt.Errorf("grid point %g beyond log end %g", g, last.Lambda)
			}
			out[i] = last.Work
			continue
		}
		a, b := wl.Samples[j], wl.Samples[j+1]
		if g <= a.Lambda {
			out[i] = a.Work
			continue
		}
		frac := (g - a.Lambda) / (b.Lambda - a.Lambda)
		out[i] = a.Work + frac*(b.Work-a.Work)
	}
	return out, nil
}

// N returns the number of trajectories.
func (e *Ensemble) N() int { return len(e.Work) }

// beta returns 1/kT.
func (e *Ensemble) beta() float64 { return units.Beta(e.Temp) }

// PMF computes the free energy profile with the chosen estimator. The
// profile is anchored at Φ(Grid[0]) = 0.
func (e *Ensemble) PMF(est Estimator) ([]float64, error) {
	if e.N() == 0 {
		return nil, errors.New("jarzynski: no trajectories")
	}
	out := make([]float64, len(e.Grid))
	ws := make([]float64, e.N())
	for g := range e.Grid {
		for t := range e.Work {
			ws[t] = e.Work[t][g]
		}
		out[g] = freeEnergy(ws, e.beta(), est)
	}
	anchor(out)
	return out, nil
}

// freeEnergy reduces one column of work values to ΔF.
func freeEnergy(ws []float64, beta float64, est Estimator) float64 {
	switch est {
	case Exponential:
		// Log-sum-exp for numerical stability: the average is
		// dominated by the smallest work values.
		minW := ws[0]
		for _, w := range ws {
			if w < minW {
				minW = w
			}
		}
		s := 0.0
		for _, w := range ws {
			s += math.Exp(-beta * (w - minW))
		}
		return minW - math.Log(s/float64(len(ws)))/beta
	case Cumulant1:
		return analysis.Mean(ws)
	case Cumulant2:
		return analysis.Mean(ws) - beta*analysis.Variance(ws)/2
	default:
		return math.NaN()
	}
}

// anchor shifts a profile so its first point is zero.
func anchor(p []float64) {
	if len(p) == 0 {
		return
	}
	p0 := p[0]
	for i := range p {
		p[i] -= p0
	}
}

// StatError bootstraps the per-grid-point statistical error of the PMF by
// resampling whole trajectories (work values along one trajectory are
// strongly correlated, so resampling columns independently would
// underestimate σ). The returned profile has one σ per grid point.
func (e *Ensemble) StatError(est Estimator, resamples int, rng *xrand.Source) ([]float64, error) {
	if e.N() < 2 {
		return nil, errors.New("jarzynski: need >= 2 trajectories for error estimate")
	}
	if resamples < 2 {
		return nil, errors.New("jarzynski: need >= 2 resamples")
	}
	n := e.N()
	prof := make([][]float64, resamples)
	idx := make([]int, n)
	ws := make([]float64, n)
	for r := 0; r < resamples; r++ {
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		p := make([]float64, len(e.Grid))
		for g := range e.Grid {
			for i, t := range idx {
				ws[i] = e.Work[t][g]
			}
			p[g] = freeEnergy(ws, e.beta(), est)
		}
		anchor(p)
		prof[r] = p
	}
	out := make([]float64, len(e.Grid))
	col := make([]float64, resamples)
	for g := range e.Grid {
		for r := range prof {
			col[r] = prof[r][g]
		}
		out[g] = analysis.StdDev(col)
	}
	return out, nil
}

// MeanStatError is the grid-averaged statistical error.
func (e *Ensemble) MeanStatError(est Estimator, resamples int, rng *xrand.Source) (float64, error) {
	sig, err := e.StatError(est, resamples, rng)
	if err != nil {
		return 0, err
	}
	return analysis.Mean(sig), nil
}

// CostNormalizedStatError rescales the grid-averaged statistical error to
// a common computational budget (the paper's normalization across pulling
// velocities: per-sample cost ∝ 1/v). refVelocity sets the budget: the
// cost of ONE sample at refVelocity.
func (e *Ensemble) CostNormalizedStatError(est Estimator, resamples int, rng *xrand.Source, refVelocity float64) (float64, error) {
	sigma, err := e.MeanStatError(est, resamples, rng)
	if err != nil {
		return 0, err
	}
	perSample := 1 / e.Velocity
	budget := 1 / refVelocity
	return analysis.CostNormalizedError(sigma, e.N(), perSample, budget), nil
}

// SystematicError measures the deviation of pmf from a reference profile
// (typically the adiabatic/exact PMF, or the slowest-pull stiff-spring
// estimate): RMSD after both are anchored at their first point.
func SystematicError(pmf, ref []float64) (float64, error) {
	if len(pmf) != len(ref) {
		return 0, fmt.Errorf("jarzynski: profile length %d != reference %d", len(pmf), len(ref))
	}
	a := append([]float64(nil), pmf...)
	b := append([]float64(nil), ref...)
	anchor(a)
	anchor(b)
	return analysis.RMSD(a, b)
}

// DissipatedWork returns ⟨W⟩ - ΔF_JE per grid point: the irreversible work
// that grows with pulling velocity (the paper's "too large a velocity
// produces irreversible work" systematic-error mechanism).
func (e *Ensemble) DissipatedWork() ([]float64, error) {
	je, err := e.PMF(Exponential)
	if err != nil {
		return nil, err
	}
	mean, err := e.PMF(Cumulant1)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(je))
	for i := range out {
		out[i] = mean[i] - je[i]
	}
	return out, nil
}

// Stitch concatenates PMFs of consecutive sub-trajectories into one
// profile by shifting each segment so it starts where the previous one
// ended (the paper's §V.A decomposition of a long trajectory into 10 Å
// sub-trajectories). Segments must be anchored profiles over their own
// local grids; offsets holds each segment's starting displacement.
func Stitch(segments [][]float64, grids [][]float64, offsets []float64) (grid, pmf []float64, err error) {
	if len(segments) == 0 || len(segments) != len(grids) || len(segments) != len(offsets) {
		return nil, nil, errors.New("jarzynski: stitch input mismatch")
	}
	shift := 0.0
	for s, seg := range segments {
		if len(seg) != len(grids[s]) {
			return nil, nil, fmt.Errorf("jarzynski: segment %d length mismatch", s)
		}
		for i, v := range seg {
			if s > 0 && i == 0 {
				continue // segment start coincides with previous end
			}
			grid = append(grid, offsets[s]+grids[s][i])
			pmf = append(pmf, shift+v)
		}
		if len(seg) > 0 {
			shift += seg[len(seg)-1]
		}
	}
	return grid, pmf, nil
}
