// Package integrate implements the MD engine's one time integrator: the
// BAOAB-split Langevin integrator for the canonical (NVT) implicit-solvent
// dynamics the SPICE translocation runs use. At zero friction it is
// velocity Verlet up to rounding.
//
// It operates on a State through a caller-provided ForceFunc so it stays
// decoupled from the force engine; fixed atoms (mass/pore scaffold) are
// never moved.
package integrate

import (
	"math"

	"spice/internal/units"
	"spice/internal/vec"
	"spice/internal/xrand"
)

// ForceFunc zeroes and fills f with the force on each atom (kcal/mol/Å)
// and returns the potential energy (kcal/mol).
type ForceFunc func(pos []vec.V, f []vec.V) float64

// State is the dynamical state the integrator advances.
type State struct {
	Pos   []vec.V // Å
	Vel   []vec.V // Å/ps
	Force []vec.V // kcal/mol/Å (valid after a step)
	Mass  []float64
	Fixed []bool
	Step  int64
	Time  float64 // ps
	// Epot is the potential energy from the last force evaluation.
	Epot float64
}

// NewState allocates a state for n atoms.
func NewState(n int) *State {
	return &State{
		Pos:   make([]vec.V, n),
		Vel:   make([]vec.V, n),
		Force: make([]vec.V, n),
		Mass:  make([]float64, n),
		Fixed: make([]bool, n),
	}
}

// N returns the atom count.
func (s *State) N() int { return len(s.Pos) }

// KineticEnergy returns Σ ½mv² in kcal/mol.
func (s *State) KineticEnergy() float64 {
	ke := 0.0
	for i := range s.Vel {
		if s.Fixed[i] {
			continue
		}
		ke += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
	}
	return ke / units.AccelUnit
}

// Temperature returns the instantaneous kinetic temperature in kelvin
// (3 degrees of freedom per mobile atom).
func (s *State) Temperature() float64 {
	n := 0
	for i := range s.Fixed {
		if !s.Fixed[i] {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (3 * float64(n) * units.Boltzmann)
}

// COM returns the center of mass of the atoms in idx.
func (s *State) COM(idx []int) vec.V {
	var c vec.V
	m := 0.0
	for _, i := range idx {
		c.AddScaled(s.Mass[i], s.Pos[i])
		m += s.Mass[i]
	}
	if m == 0 {
		return vec.Zero
	}
	return c.Scale(1 / m)
}

// InitVelocities draws Maxwell–Boltzmann velocities at temperature t for
// mobile atoms and zeroes fixed ones.
func (s *State) InitVelocities(t float64, rng *xrand.Source) {
	for i := range s.Vel {
		if s.Fixed[i] {
			s.Vel[i] = vec.Zero
			continue
		}
		sd := units.ThermalVelocity(t, s.Mass[i])
		s.Vel[i] = vec.V{
			X: sd * rng.NormFloat64(),
			Y: sd * rng.NormFloat64(),
			Z: sd * rng.NormFloat64(),
		}
	}
}

// Langevin is the BAOAB-split Langevin (NVT) integrator: the workhorse for
// the implicit-solvent CG runs. BAOAB gives accurate configurational
// sampling even at the large (10 fs) CG timestep.
type Langevin struct {
	DT    float64 // ps
	Gamma float64 // friction, 1/ps
	Temp  float64 // K
	RNG   *xrand.Source

	// GammaFor, if set, returns a per-atom friction given the atom's
	// current position — used to model the higher effective viscosity
	// of confined water inside the pore lumen. It must return a
	// non-negative value; 0 is frictionless. The O-step is solved
	// exactly for whatever it returns, so detailed balance holds
	// pointwise. It must read only its arguments (i, p), never other
	// atoms' state: Step runs the B, A, O and A parts of one atom
	// before moving to the next.
	GammaFor func(i int, p vec.V) float64

	primed bool
	c1     float64
	kT     float64
	// Per-atom constants of a primed integrator: the B kick ½·dt·A/m
	// and the O-step noise amplitude sqrt(kT/m·A·(1-c1²)) (unused with
	// GammaFor). Prime, which a Reprime runs on the next step, drops
	// them, so a change of DT, Gamma, Temp or masses takes effect there.
	kick, sd []float64
}

// NewLangevin returns a BAOAB integrator at temperature t.
func NewLangevin(dt, gamma, t float64, rng *xrand.Source) *Langevin {
	return &Langevin{DT: dt, Gamma: gamma, Temp: t, RNG: rng}
}

// Step advances st by one timestep using forces from ff.
func (l *Langevin) Step(st *State, ff ForceFunc) {
	if !l.primed {
		st.Epot = evalForces(st, ff)
		l.Prime()
	}
	if len(l.kick) != st.N() {
		l.cache(st)
	}
	dt := l.DT
	halfA := 0.5 * dt
	c1 := l.c1
	// B, A, O (Ornstein-Uhlenbeck exact solve), A, one atom at a time:
	// the same arithmetic and RNG order as four passes over all atoms.
	for i := range st.Pos {
		if st.Fixed[i] {
			continue
		}
		v, p := &st.Vel[i], &st.Pos[i]
		v.AddScaled(l.kick[i], st.Force[i])
		p.AddScaled(halfA, *v)
		sd := l.sd[i]
		ci := c1
		if l.GammaFor != nil {
			ci = math.Exp(-l.GammaFor(i, *p) * dt)
			sd = math.Sqrt(l.kT / st.Mass[i] * units.AccelUnit * (1 - ci*ci))
		}
		*v = v.Scale(ci).Add(vec.V{
			X: sd * l.RNG.NormFloat64(),
			Y: sd * l.RNG.NormFloat64(),
			Z: sd * l.RNG.NormFloat64(),
		})
		p.AddScaled(halfA, *v)
	}
	// Force refresh, B half.
	st.Epot = evalForces(st, ff)
	for i := range st.Pos {
		if st.Fixed[i] {
			continue
		}
		st.Vel[i].AddScaled(l.kick[i], st.Force[i])
	}
	st.Step++
	st.Time += dt
}

// cache fills the per-atom constants for st's masses.
func (l *Langevin) cache(st *State) {
	l.kick, l.sd = make([]float64, st.N()), make([]float64, st.N())
	halfB := 0.5 * l.DT * units.AccelUnit
	for i, m := range st.Mass {
		l.kick[i] = halfB / m
		l.sd[i] = math.Sqrt(l.kT / m * units.AccelUnit * (1 - l.c1*l.c1))
	}
}

// Reprime forces the integrator to re-evaluate forces on the next step
// (call after externally mutating positions, e.g. restoring a checkpoint).
func (l *Langevin) Reprime() { l.primed = false }

// Prime marks the integrator primed without a force evaluation. Use when
// the State's Force array was itself restored from a checkpoint: steering
// terms (the SMD spring's λ) may have advanced since that evaluation, so
// re-evaluating would NOT reproduce the cached forces the uninterrupted
// trajectory carries across the step boundary.
func (l *Langevin) Prime() {
	l.c1 = math.Exp(-l.Gamma * l.DT)
	l.kT = units.KT(l.Temp)
	l.primed, l.kick = true, nil
}

func evalForces(st *State, ff ForceFunc) float64 {
	for i := range st.Force {
		st.Force[i] = vec.Zero
	}
	return ff(st.Pos, st.Force)
}
