package md

import (
	"fmt"
	"math"

	"spice/internal/analysis"
	"spice/internal/units"
	"spice/internal/vec"
)

// Recorder accumulates time-series observables from a running engine —
// the monitoring stream the steering framework exposes to visualizers
// (instantaneous temperature, energies) plus the transport diagnostics
// (mean-squared displacement) used to validate the Langevin substrate.
type Recorder struct {
	eng *Engine
	// Every controls the sampling stride in steps.
	Every int

	ref      []vec.V // positions at attach time (for MSD)
	refSet   bool
	times    []float64
	temps    []float64
	epots    []float64
	msds     []float64
	msdAtoms []int
}

// NewRecorder attaches a recorder to eng, tracking MSD over atoms (nil =
// all mobile atoms).
func NewRecorder(eng *Engine, every int, atoms []int) *Recorder {
	if every <= 0 {
		every = 10
	}
	r := &Recorder{eng: eng, Every: every}
	if atoms == nil {
		for i, a := range eng.Topology().Atoms {
			if !a.Fixed {
				atoms = append(atoms, i)
			}
		}
	}
	r.msdAtoms = atoms
	return r
}

// Sample records the current state if the step lines up with Every.
// Call it after each engine step (or drive it via Run).
func (r *Recorder) Sample() {
	st := r.eng.State()
	if !r.refSet {
		r.ref = append([]vec.V(nil), st.Pos...)
		r.refSet = true
	}
	if st.Step%int64(r.Every) != 0 {
		return
	}
	r.times = append(r.times, st.Time)
	r.temps = append(r.temps, st.Temperature())
	r.epots = append(r.epots, st.Epot)
	msd := 0.0
	for _, i := range r.msdAtoms {
		msd += vec.Dist2(st.Pos[i], r.ref[i])
	}
	if len(r.msdAtoms) > 0 {
		msd /= float64(len(r.msdAtoms))
	}
	r.msds = append(r.msds, msd)
}

// Run advances the engine n steps, sampling as it goes.
func (r *Recorder) Run(n int) {
	for i := 0; i < n; i++ {
		r.eng.Step()
		r.Sample()
	}
}

// N returns the number of recorded samples.
func (r *Recorder) N() int { return len(r.times) }

// Times, Temperatures, PotentialEnergies and MSDs expose the series.
func (r *Recorder) Times() []float64             { return r.times }
func (r *Recorder) Temperatures() []float64      { return r.temps }
func (r *Recorder) PotentialEnergies() []float64 { return r.epots }
func (r *Recorder) MSDs() []float64              { return r.msds }

// MeanTemperature averages the recorded kinetic temperature.
func (r *Recorder) MeanTemperature() float64 { return analysis.Mean(r.temps) }

// DiffusionCoefficient fits MSD(t) = 6·D·t over the second half of the
// recorded series (the ballistic-to-diffusive crossover is excluded) and
// returns D in Å²/ps.
func (r *Recorder) DiffusionCoefficient() (float64, error) {
	n := len(r.times)
	if n < 8 {
		return 0, fmt.Errorf("md: need >= 8 samples for a diffusion fit, have %d", n)
	}
	_, slope, err := analysis.LinearFit(r.times[n/2:], r.msds[n/2:])
	if err != nil {
		return 0, fmt.Errorf("md: diffusion fit: %w", err)
	}
	if slope <= 0 || math.IsNaN(slope) {
		return 0, fmt.Errorf("md: non-diffusive MSD (slope %g)", slope)
	}
	return slope / 6, nil
}

// EinsteinD returns the Langevin prediction D = kT/(m·γ) in Å²/ps for a
// free particle — the reference the engine's transport is validated
// against.
func EinsteinD(temp, mass, gamma float64) float64 {
	return units.KT(temp) / (mass * gamma) * units.AccelUnit
}
