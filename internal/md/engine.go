// Package md is the molecular-dynamics engine at the bottom of the SPICE
// stack — the stand-in for NAMD in the paper's architecture. It combines a
// topology, force-field terms, a neighbor-listed nonbonded potential and
// the BAOAB Langevin integrator, sums every force on the goroutine that
// steps the engine, and supports the checkpoint/clone operations the
// RealityGrid steering layer relies on. Parallelism lives one level up:
// independent pulls, replicas and windows run on their own engines.
package md

import (
	"fmt"
	"sync"
	"time"

	"spice/internal/forcefield"
	"spice/internal/integrate"
	"spice/internal/neighbor"
	"spice/internal/topology"
	"spice/internal/trace"
	"spice/internal/vec"
	"spice/internal/xrand"
)

// Config assembles an Engine.
type Config struct {
	Top  *topology.Topology
	Init []vec.V // initial positions, one per atom

	// Terms are the bonded/field contributions (bonds, angles, pore
	// field, binding sites...). The engine adds nonbonded itself.
	Terms []forcefield.Term
	// Pair is the nonbonded potential; nil disables nonbonded forces.
	Pair *forcefield.Combined

	DT    float64 // timestep, ps (default 0.01 = 10 fs)
	Gamma float64 // Langevin friction, 1/ps (default 1)
	Temp  float64 // K (default 300)
	// GammaFor optionally makes the Langevin friction position-
	// dependent (e.g. higher inside the pore lumen, where confined
	// water is effectively more viscous). It must read nothing but its
	// arguments (see integrate.Langevin.GammaFor).
	GammaFor func(i int, p vec.V) float64

	Seed uint64 // RNG seed (default 1)
}

// skin is the neighbor-list margin beyond the pair cutoff, Å: a list is
// rebuilt once any atom has moved skin/2 since the last rebuild.
const skin = 2

// Engine is a runnable simulation.
type Engine struct {
	cfg   Config
	top   *topology.Topology
	state *integrate.State
	integ *integrate.Langevin
	nlist *neighbor.List
	rng   *xrand.Source
	// ff is e.forces bound once: a method value allocates at every
	// bind, and Step is the hottest call site in the repo.
	ff integrate.ForceFunc

	// External receives steering forces from the IMD/steering layer.
	External *forcefield.ExternalForces

	// charges/radii are the per-atom pair-potential parameters, kept as
	// flat slices so the pair loop never loads whole Atom structs.
	charges []float64
	radii   []float64

	// termE holds each term's energy from the last force evaluation
	// (Terms order; pairE is the nonbonded one), so a step writes no
	// map; Energies names them on demand.
	termE     []float64
	pairE     float64
	evaluated bool
	mu        sync.Mutex // guards checkpoint vs step from other goroutines

	// Sampled step-latency observer (SetStepObserver). The counter is a
	// plain int because Step is only ever driven from one goroutine; the
	// nil check is the only cost an uninstrumented engine pays.
	obsEvery int
	obsLeft  int
	obsFn    func(d time.Duration)
}

// New validates cfg and builds an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Top == nil {
		return nil, fmt.Errorf("md: nil topology")
	}
	if err := cfg.Top.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Init) != cfg.Top.N() {
		return nil, fmt.Errorf("md: %d initial positions for %d atoms", len(cfg.Init), cfg.Top.N())
	}
	if cfg.DT == 0 {
		cfg.DT = 0.01
	}
	if cfg.DT < 0 {
		return nil, fmt.Errorf("md: negative timestep %g", cfg.DT)
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 1
	}
	if cfg.Temp == 0 {
		cfg.Temp = 300
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// The Terms slice is configuration shared with the caller (and, via
	// Clone, with a parent engine); copy it so a later AddTerm on either
	// side cannot overwrite a slot in a shared backing array.
	cfg.Terms = append([]forcefield.Term(nil), cfg.Terms...)

	e := &Engine{
		cfg:      cfg,
		top:      cfg.Top,
		rng:      xrand.New(cfg.Seed),
		External: forcefield.NewExternalForces(),
	}

	n := cfg.Top.N()
	e.state = integrate.NewState(n)
	copy(e.state.Pos, cfg.Init)
	for i, a := range cfg.Top.Atoms {
		e.state.Mass[i] = a.Mass
		e.state.Fixed[i] = a.Fixed
	}
	e.state.InitVelocities(cfg.Temp, e.rng)

	if cfg.Pair != nil {
		e.nlist = neighbor.NewList(cfg.Pair.Cutoff(), skin)
		// Bake exclusions into the list: bonded 1-2/1-3 partners from
		// the topology, plus wall-wall pairs (both atoms fixed), which
		// never matter.
		e.nlist.SetExclusions(cfg.Top.ExclusionLists())
		fixed := make([]bool, n)
		for i, a := range cfg.Top.Atoms {
			fixed[i] = a.Fixed
		}
		e.nlist.SetInactive(fixed)

		e.charges = make([]float64, n)
		e.radii = make([]float64, n)
		for i, a := range cfg.Top.Atoms {
			e.charges[i] = a.Charge
			e.radii[i] = a.Radius
		}
	}

	e.integ = integrate.NewLangevin(cfg.DT, cfg.Gamma, cfg.Temp, e.rng.Split())
	e.integ.GammaFor = cfg.GammaFor

	e.ff = e.forces
	return e, nil
}

// Close is a no-op: an Engine holds no goroutines or other resources
// beyond memory. It is kept for benchmark/micro.go, which still calls it.
func (e *Engine) Close() {}

// State exposes the dynamical state (read it between steps only).
func (e *Engine) State() *integrate.State { return e.state }

// Topology returns the engine's topology.
func (e *Engine) Topology() *topology.Topology { return e.top }

// Temperature returns the configured thermostat temperature (K).
func (e *Engine) Temperature() float64 { return e.cfg.Temp }

// Timestep returns dt in ps.
func (e *Engine) Timestep() float64 { return e.cfg.DT }

// AddTerm appends a force-field term at runtime (used by SMD and IMD).
func (e *Engine) AddTerm(t forcefield.Term) { e.cfg.Terms = append(e.cfg.Terms, t) }

// Energies returns the per-term potential-energy breakdown from the most
// recent force evaluation (term name -> kcal/mol; of two terms with one
// name the later wins). It is empty before the first evaluation.
func (e *Engine) Energies() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]float64, len(e.termE)+1)
	for k, v := range e.termE {
		out[e.cfg.Terms[k].Name()] = v
	}
	if e.evaluated && e.nlist != nil {
		out["nonbonded"] = e.pairE
	}
	return out
}

// forces is the integrate.ForceFunc: bonded/field terms, then external
// steering forces, then the nonbonded pair loop in list order, all on the
// calling goroutine. The summation order is fixed by the pair list alone,
// so a trajectory depends only on its inputs and seed.
func (e *Engine) forces(pos []vec.V, f []vec.V) float64 {
	total := 0.0
	e.termE = e.termE[:0]
	for _, t := range e.cfg.Terms {
		en := t.AddForces(pos, f)
		e.termE = append(e.termE, en)
		total += en
	}
	if en := e.External.AddForces(pos, f); en != 0 {
		total += en
	}
	if e.nlist != nil {
		e.nlist.Update(pos)
		e.pairE = e.cfg.Pair.AddPairForces(e.nlist.Pairs, e.charges, e.radii, pos, f)
		total += e.pairE
	}
	e.evaluated = true
	return total
}

// NeighborStats returns rebuild-cadence and pair-count metrics from the
// engine's neighbor list (zero Stats when nonbonded forces are disabled).
func (e *Engine) NeighborStats() neighbor.Stats {
	if e.nlist == nil {
		return neighbor.Stats{}
	}
	return e.nlist.Statistics()
}

// SetStepObserver installs a sampled step-latency observer: one Step in
// every is timed with the wall clock and fn invoked with the duration.
// fn runs on the stepping goroutine after the engine lock is released —
// it may read NeighborStats or publish into atomic instruments, but must
// not call back into Step/Run. Sampling keeps the uninstrumented steps
// on the exact hot path (a single nil check); every <= 0 or a nil fn
// removes the observer.
func (e *Engine) SetStepObserver(every int, fn func(d time.Duration)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if every <= 0 || fn == nil {
		e.obsEvery, e.obsLeft, e.obsFn = 0, 0, nil
		return
	}
	e.obsEvery, e.obsLeft, e.obsFn = every, every, fn
}

// SetNeighborObserver installs fn as the neighbor-list rebuild hook: it
// is invoked with the new pair count after every rebuild, on the
// goroutine driving the force evaluation, with no allocations. A no-op
// when nonbonded forces are disabled; nil removes the hook.
func (e *Engine) SetNeighborObserver(fn func(pairs int)) {
	if e.nlist != nil {
		e.nlist.OnRebuild = fn
	}
}

// Step advances the simulation by one timestep.
func (e *Engine) Step() {
	if e.obsFn != nil {
		e.obsLeft--
		if e.obsLeft <= 0 {
			e.obsLeft = e.obsEvery
			t0 := time.Now()
			e.mu.Lock()
			e.integ.Step(e.state, e.ff)
			e.mu.Unlock()
			e.obsFn(time.Since(t0))
			return
		}
	}
	e.mu.Lock()
	e.integ.Step(e.state, e.ff)
	e.mu.Unlock()
}

// Run advances n timesteps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// PotentialEnergy returns the potential energy from the last step.
func (e *Engine) PotentialEnergy() float64 { return e.state.Epot }

// TotalEnergy returns kinetic + potential (kcal/mol).
func (e *Engine) TotalEnergy() float64 { return e.state.Epot + e.state.KineticEnergy() }

// Checkpoint snapshots the dynamical state. Safe to call between steps.
//
// Beyond positions and velocities, the snapshot carries the engine's live
// RNG streams and the neighbor-list reference positions, so a Restore of
// the same checkpoint resumes the trajectory bit-exactly: the thermostat
// continues the same random sequence, and the pair list is rebuilt from
// the same reference configuration (same pair set, same accumulation
// order). This is what lets the dist runtime migrate a half-finished SMD
// pull to another worker without perturbing the result.
func (e *Engine) Checkpoint() *trace.Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &trace.Checkpoint{
		Step: e.state.Step,
		Time: e.state.Time,
		Pos:  append([]vec.V(nil), e.state.Pos...),
		Vel:  append([]vec.V(nil), e.state.Vel...),
		Seed: e.cfg.Seed,
	}
	c.RNG = append(e.rng.Snapshot(), e.integ.RNG.Snapshot()...)
	if e.nlist != nil {
		c.NeighborRef = e.nlist.Ref()
	}
	c.Force = append([]vec.V(nil), e.state.Force...)
	return c
}

// Restore loads a checkpoint into the engine. When the checkpoint carries
// RNG state (the engine and thermostat streams Checkpoint writes) both
// random streams are restored too — exact-resume semantics; otherwise the
// current streams continue (clone semantics). An RNG block that lacks the
// thermostat stream is refused before anything is loaded. When the
// checkpoint carries neighbor-list reference positions, the pair list is
// rebuilt from those instead of the restored positions, so the rebuild
// schedule and pair ordering match the run that wrote it.
func (e *Engine) Restore(c *trace.Checkpoint) error {
	if len(c.Pos) != e.top.N() || len(c.Vel) != e.top.N() {
		return fmt.Errorf("md: checkpoint has %d atoms, engine has %d", len(c.Pos), e.top.N())
	}
	if n := len(c.RNG); n > 0 && (n%xrand.SnapshotLen != 0 || n < 2*xrand.SnapshotLen) {
		return fmt.Errorf("md: checkpoint RNG block has %d words, want the engine and thermostat streams (a multiple of %d, at least two)", n, xrand.SnapshotLen)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	copy(e.state.Pos, c.Pos)
	copy(e.state.Vel, c.Vel)
	e.state.Step = c.Step
	e.state.Time = c.Time
	if len(c.RNG) > 0 {
		if err := e.rng.RestoreSnapshot(c.RNG[:xrand.SnapshotLen]); err != nil {
			return fmt.Errorf("md: restoring engine RNG: %w", err)
		}
		if err := e.integ.RNG.RestoreSnapshot(c.RNG[xrand.SnapshotLen : 2*xrand.SnapshotLen]); err != nil {
			return fmt.Errorf("md: restoring thermostat RNG: %w", err)
		}
	}
	if len(c.Force) == e.top.N() {
		// The checkpoint carries the integrator's cached force array.
		// Restore it verbatim and skip the re-priming evaluation:
		// steering terms (the SMD spring's λ) may have advanced since
		// that evaluation, so recomputing here would feed the first
		// B-half kick a different force than the uninterrupted run.
		copy(e.state.Force, c.Force)
		e.integ.Prime()
	} else {
		e.integ.Reprime()
	}
	if e.nlist != nil {
		if len(c.NeighborRef) == e.top.N() {
			e.nlist.ForceRebuild(c.NeighborRef)
		} else {
			e.nlist.ForceRebuild(e.state.Pos)
		}
	}
	return nil
}

// Clone builds a new Engine with identical configuration and current
// state, but an independent RNG stream seeded with seed. This implements
// the paper's "checkpoint and cloning of simulations... for verification
// and validation tests without perturbing the original simulation".
func (e *Engine) Clone(seed uint64) (*Engine, error) {
	cfg := e.cfg
	cfg.Seed = seed
	cfg.Init = append([]vec.V(nil), e.state.Pos...)
	// Terms added at runtime (SMD springs, IMD forces) are configuration
	// too; the copied cfg.Terms slice already includes them.
	clone, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ck := e.Checkpoint()
	ck.Seed = seed
	ck.RNG = nil // the clone gets a fresh stream from seed, not the parent's
	if err := clone.Restore(ck); err != nil {
		return nil, err
	}
	copy(clone.state.Vel, e.state.Vel)
	return clone, nil
}

// Frame returns the current positions as a trajectory frame.
func (e *Engine) Frame() trace.Frame {
	e.mu.Lock()
	defer e.mu.Unlock()
	return trace.Frame{
		Step: e.state.Step,
		Time: e.state.Time,
		Pos:  append([]vec.V(nil), e.state.Pos...),
	}
}
