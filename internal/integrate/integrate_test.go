package integrate

import (
	"math"
	"testing"

	"spice/internal/units"
	"spice/internal/vec"
	"spice/internal/xrand"
)

// harmonicWell is a simple isotropic well E = ½k|r|² applied to all atoms.
func harmonicWell(k float64) ForceFunc {
	return func(pos []vec.V, f []vec.V) float64 {
		e := 0.0
		for i := range pos {
			e += 0.5 * k * pos[i].Norm2()
			f[i].AddScaled(-k, pos[i])
		}
		return e
	}
}

func newTestState(n int, mass float64) *State {
	st := NewState(n)
	for i := range st.Mass {
		st.Mass[i] = mass
	}
	return st
}

// At zero friction the O-step is the identity (c1 = 1, no noise), so BAOAB
// is velocity Verlet up to rounding and conserves energy.
func TestFrictionlessLangevinConservesEnergy(t *testing.T) {
	st := newTestState(10, 12)
	rng := xrand.New(1)
	for i := range st.Pos {
		st.Pos[i] = vec.V{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	st.InitVelocities(300, rng)
	integ := NewLangevin(0.001, 0, 300, rng)
	ff := harmonicWell(5)

	integ.Step(st, ff)
	e0 := st.Epot + st.KineticEnergy()
	for i := 0; i < 5000; i++ {
		integ.Step(st, ff)
	}
	e1 := st.Epot + st.KineticEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 1e-3 {
		t.Fatalf("frictionless energy drift %.3g (E0=%v E1=%v)", drift, e0, e1)
	}
}

func TestFrictionlessLangevinHarmonicPeriod(t *testing.T) {
	// Single particle in a well: x(t) = x0·cos(ωt), ω = sqrt(k·AccelUnit/m).
	st := newTestState(1, 10)
	st.Pos[0] = vec.V{X: 1}
	k := 3.0
	omega := math.Sqrt(k / 10 * units.AccelUnit)
	integ := NewLangevin(0.0005, 0, 300, xrand.New(6))
	ff := harmonicWell(k)
	quarter := (math.Pi / 2) / omega
	steps := int(quarter / integ.DT)
	for i := 0; i < steps; i++ {
		integ.Step(st, ff)
	}
	// After a quarter period x ~ 0.
	if math.Abs(st.Pos[0].X) > 0.02 {
		t.Fatalf("quarter-period x = %v, want ~0", st.Pos[0].X)
	}
}

func TestLangevinEquilibratesTemperature(t *testing.T) {
	st := newTestState(200, 325)
	rng := xrand.New(2)
	for i := range st.Pos {
		st.Pos[i] = vec.V{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	// Start cold: the thermostat must heat the system to 300 K.
	integ := NewLangevin(0.01, 5, 300, xrand.New(3))
	ff := harmonicWell(2)
	for i := 0; i < 2000; i++ {
		integ.Step(st, ff)
	}
	// Average over a window.
	sum := 0.0
	const m = 2000
	for i := 0; i < m; i++ {
		integ.Step(st, ff)
		sum += st.Temperature()
	}
	avg := sum / m
	if math.Abs(avg-300)/300 > 0.05 {
		t.Fatalf("Langevin temperature %v, want 300±5%%", avg)
	}
}

func TestLangevinEquipartitionPositionVariance(t *testing.T) {
	// In a harmonic well at equilibrium, <x²> = kT/k per dof.
	st := newTestState(100, 100)
	k := 2.0
	integ := NewLangevin(0.01, 2, 300, xrand.New(4))
	ff := harmonicWell(k)
	for i := 0; i < 3000; i++ {
		integ.Step(st, ff)
	}
	var sum float64
	var count int
	for i := 0; i < 5000; i++ {
		integ.Step(st, ff)
		if i%10 == 0 {
			for j := range st.Pos {
				sum += st.Pos[j].X * st.Pos[j].X
				count++
			}
		}
	}
	got := sum / float64(count)
	want := units.KTRoom / k
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("<x²> = %v, want %v (±10%%)", got, want)
	}
}

func TestFixedAtomsDoNotMove(t *testing.T) {
	st := newTestState(3, 1)
	st.Fixed[1] = true
	st.Pos[1] = vec.V{X: 5, Y: 5, Z: 5}
	rng := xrand.New(5)
	st.InitVelocities(300, rng)
	if st.Vel[1] != vec.Zero {
		t.Fatal("fixed atom received thermal velocity")
	}
	integ := NewLangevin(0.01, 1, 300, rng)
	ff := harmonicWell(1)
	for i := 0; i < 100; i++ {
		integ.Step(st, ff)
	}
	if st.Pos[1] != (vec.V{X: 5, Y: 5, Z: 5}) {
		t.Fatalf("fixed atom moved to %v", st.Pos[1])
	}
	// Frictionless too.
	integ = NewLangevin(0.01, 0, 300, rng)
	for i := 0; i < 100; i++ {
		integ.Step(st, ff)
	}
	if st.Pos[1] != (vec.V{X: 5, Y: 5, Z: 5}) {
		t.Fatalf("fixed atom moved without friction to %v", st.Pos[1])
	}
}

func TestLangevinDeterminism(t *testing.T) {
	run := func() vec.V {
		st := newTestState(5, 10)
		rng := xrand.New(7)
		for i := range st.Pos {
			st.Pos[i] = vec.V{X: float64(i)}
		}
		st.InitVelocities(300, rng)
		integ := NewLangevin(0.01, 1, 300, xrand.New(8))
		ff := harmonicWell(1)
		for i := 0; i < 500; i++ {
			integ.Step(st, ff)
		}
		return st.Pos[3]
	}
	if run() != run() {
		t.Fatal("same seeds produced different trajectories")
	}
}

func TestTemperatureOfKnownVelocities(t *testing.T) {
	st := newTestState(2, 50)
	// Zero velocities: T = 0.
	if st.Temperature() != 0 {
		t.Fatal("cold system not at 0 K")
	}
	// KE = (3/2)·N·kT with N=2 atoms at exactly thermal speed.
	sd := units.ThermalVelocity(300, 50)
	for i := range st.Vel {
		st.Vel[i] = vec.V{X: sd, Y: sd, Z: sd}
	}
	if got := st.Temperature(); math.Abs(got-300)/300 > 1e-9 {
		t.Fatalf("temperature = %v, want 300", got)
	}
}

func TestCOM(t *testing.T) {
	st := newTestState(3, 1)
	st.Mass[2] = 3
	st.Pos[0] = vec.V{X: 0}
	st.Pos[1] = vec.V{X: 2}
	st.Pos[2] = vec.V{X: 10}
	com := st.COM([]int{0, 1, 2})
	want := (0.0 + 2 + 30) / 5
	if math.Abs(com.X-want) > 1e-12 {
		t.Fatalf("COM = %v, want %v", com.X, want)
	}
	if st.COM(nil) != vec.Zero {
		t.Fatal("empty COM should be zero")
	}
}

func TestStepAndTimeAdvance(t *testing.T) {
	st := newTestState(1, 1)
	integ := NewLangevin(0.002, 0, 300, xrand.New(10))
	ff := harmonicWell(1)
	for i := 0; i < 10; i++ {
		integ.Step(st, ff)
	}
	if st.Step != 10 {
		t.Fatalf("step = %d", st.Step)
	}
	if math.Abs(st.Time-0.02) > 1e-12 {
		t.Fatalf("time = %v", st.Time)
	}
}

func TestReprime(t *testing.T) {
	st := newTestState(1, 1)
	integ := NewLangevin(0.01, 1, 300, xrand.New(9))
	ff := harmonicWell(1)
	integ.Step(st, ff)
	// Teleport the particle; without repriming the cached force is stale.
	st.Pos[0] = vec.V{X: 100}
	integ.Reprime()
	integ.Step(st, ff)
	// Force must reflect the new position (pulling back hard).
	if st.Force[0].X >= 0 {
		t.Fatalf("stale force after Reprime: %v", st.Force[0])
	}
}

func TestLangevinPositionDependentFriction(t *testing.T) {
	// A per-atom GammaFor must (a) be applied, (b) preserve the
	// equilibrium temperature (the O-step is exact for any gamma).
	st := newTestState(100, 100)
	integ := NewLangevin(0.01, 1, 300, xrand.New(21))
	integ.GammaFor = func(i int, p vec.V) float64 {
		if p.X < 0 {
			return 10
		}
		return 1
	}
	ff := harmonicWell(2)
	for i := 0; i < 3000; i++ {
		integ.Step(st, ff)
	}
	sum := 0.0
	const m = 3000
	for i := 0; i < m; i++ {
		integ.Step(st, ff)
		sum += st.Temperature()
	}
	if avg := sum / m; math.Abs(avg-300)/300 > 0.05 {
		t.Fatalf("temperature with mixed friction = %v, want 300", avg)
	}
}

func TestHighFrictionSlowsDrift(t *testing.T) {
	// Dragging against friction: higher gamma -> larger lag behind a
	// moving trap. Use a deterministic check via damped mean drift.
	drift := func(gamma float64) float64 {
		st := newTestState(1, 325)
		integ := NewLangevin(0.01, gamma, 300, xrand.New(22))
		// Constant force pulls +x; terminal velocity ~ F/(m·gamma).
		ff := func(pos []vec.V, f []vec.V) float64 {
			f[0] = vec.V{X: 5}
			return 0
		}
		for i := 0; i < 5000; i++ {
			integ.Step(st, ff)
		}
		return st.Pos[0].X
	}
	lo, hi := drift(0.5), drift(5)
	if hi >= lo {
		t.Fatalf("10x friction should slow drift: gamma=0.5 -> %v, gamma=5 -> %v", lo, hi)
	}
}

// refLangevin is Langevin as it stepped before its per-atom constants
// were cached and its B, A, O, A passes fused: four passes over all atoms,
// every constant recomputed where it is used.
type refLangevin struct {
	DT, Gamma, Temp float64
	RNG             *xrand.Source
	GammaFor        func(i int, p vec.V) float64
	primed          bool
	c1, kT          float64
}

func (l *refLangevin) Prime() {
	l.c1 = math.Exp(-l.Gamma * l.DT)
	l.kT = units.KT(l.Temp)
	l.primed = true
}

func (l *refLangevin) Step(st *State, ff ForceFunc) {
	if !l.primed {
		st.Epot = evalForces(st, ff)
		l.Prime()
	}
	dt := l.DT
	halfB := 0.5 * dt * units.AccelUnit
	halfA := 0.5 * dt
	for i := range st.Pos {
		if st.Fixed[i] {
			continue
		}
		st.Vel[i].AddScaled(halfB/st.Mass[i], st.Force[i])
		st.Pos[i].AddScaled(halfA, st.Vel[i])
	}
	for i := range st.Pos {
		if st.Fixed[i] {
			continue
		}
		ci := l.c1
		if l.GammaFor != nil {
			ci = math.Exp(-l.GammaFor(i, st.Pos[i]) * dt)
		}
		sd := math.Sqrt(l.kT / st.Mass[i] * units.AccelUnit * (1 - ci*ci))
		st.Vel[i] = st.Vel[i].Scale(ci).Add(vec.V{
			X: sd * l.RNG.NormFloat64(),
			Y: sd * l.RNG.NormFloat64(),
			Z: sd * l.RNG.NormFloat64(),
		})
	}
	for i := range st.Pos {
		if st.Fixed[i] {
			continue
		}
		st.Pos[i].AddScaled(halfA, st.Vel[i])
	}
	st.Epot = evalForces(st, ff)
	for i := range st.Pos {
		if st.Fixed[i] {
			continue
		}
		st.Vel[i].AddScaled(halfB/st.Mass[i], st.Force[i])
	}
	st.Step++
	st.Time += dt
}

// TestLangevinMatchesReferenceAcrossReprime pins the fused, cached
// Langevin step to the four-pass reference bit for bit, and pins the
// cache's invalidation: a Temp, Gamma or DT changed before Prime or
// Reprime must reach the very next step's kick and noise amplitude.
func TestLangevinMatchesReferenceAcrossReprime(t *testing.T) {
	newPair := func() (*State, *State) {
		a, b := NewState(7), NewState(7)
		for i := range a.Pos {
			for _, st := range []*State{a, b} {
				st.Mass[i] = 10 + 40*float64(i)
				st.Fixed[i] = i == 3
				st.Pos[i] = vec.V{X: float64(i), Y: -0.5 * float64(i), Z: 1}
			}
		}
		return a, b
	}
	gammaFor := func(_ int, p vec.V) float64 {
		if p.X < 0 {
			return 6
		}
		return 0.5
	}
	ff := harmonicWell(3)
	for _, withGammaFor := range []bool{false, true} {
		got, want := newPair()
		lg := NewLangevin(0.01, 1, 300, xrand.New(5))
		ref := &refLangevin{DT: 0.01, Gamma: 1, Temp: 300, RNG: xrand.New(5)}
		if withGammaFor {
			lg.GammaFor, ref.GammaFor = gammaFor, gammaFor
		}
		compare := func(stage string) {
			t.Helper()
			for i := range got.Pos {
				if got.Pos[i] != want.Pos[i] || got.Vel[i] != want.Vel[i] {
					t.Fatalf("GammaFor %v, %s: atom %d at %v / %v, reference %v / %v",
						withGammaFor, stage, i, got.Pos[i], got.Vel[i], want.Pos[i], want.Vel[i])
				}
			}
		}
		run := func(stage string) {
			t.Helper()
			for k := 0; k < 40; k++ {
				lg.Step(got, ff)
				ref.Step(want, ff)
			}
			compare(stage)
		}
		run("start")
		lg.Temp, ref.Temp = 450, 450
		lg.Reprime()
		ref.primed = false
		run("Temp changed, Reprime")
		lg.Gamma, ref.Gamma = 4, 4
		lg.Prime()
		ref.Prime()
		run("Gamma changed, Prime")
		lg.DT, ref.DT = 0.02, 0.02
		lg.Reprime()
		ref.primed = false
		run("DT changed, Reprime")
		got.Mass[0], want.Mass[0] = 5, 5
		lg.Prime()
		ref.Prime()
		run("mass changed, Prime")
	}
}
