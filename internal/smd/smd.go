// Package smd implements Steered Molecular Dynamics: a fictitious pulling
// atom moves at constant velocity v along a pulling axis and drags the
// center of mass of the steered atoms behind it through a harmonic spring
// of stiffness κ — the non-equilibrium protocol whose work values feed
// Jarzynski's equality (package jarzynski).
//
// The two protocol parameters are exactly the ones the paper's Fig. 4
// optimizes: the spring constant κ (how strongly the SMD atoms are coupled
// to the pulling atom) and the pulling velocity v (how fast the reaction
// coordinate is traversed).
package smd

import (
	"fmt"
	"math"

	"spice/internal/md"
	"spice/internal/trace"
	"spice/internal/units"
	"spice/internal/vec"
)

// Protocol defines one constant-velocity pull.
type Protocol struct {
	// Kappa is the spring constant in kcal/mol/Å². Use
	// units.SpringFromPaper to convert from the paper's pN/Å.
	Kappa float64
	// Velocity is the pulling speed in Å/ps (units.VelocityFromPaper
	// converts from Å/ns). Positive pulls along Axis.
	Velocity float64
	// Axis is the pulling direction; it is normalized internally.
	Axis vec.V
	// Atoms are the steered atoms; the spring couples to their COM.
	// The paper steers the C3' atom of the leading nucleotide, i.e. a
	// single-atom selection.
	Atoms []int
	// Distance is the total pull length in Å (the paper uses 10 Å
	// sub-trajectories).
	Distance float64
	// SampleEvery sets the reaction-coordinate sampling interval in Å
	// for the recorded work profile (default 0.25).
	SampleEvery float64
}

// Validate reports configuration errors.
func (p *Protocol) Validate() error {
	if p.Kappa <= 0 {
		return fmt.Errorf("smd: spring constant must be positive, got %g", p.Kappa)
	}
	if p.Velocity <= 0 {
		return fmt.Errorf("smd: pulling velocity must be positive, got %g", p.Velocity)
	}
	if p.Axis.Norm() == 0 {
		return fmt.Errorf("smd: zero pulling axis")
	}
	if len(p.Atoms) == 0 {
		return fmt.Errorf("smd: no steered atoms")
	}
	if p.Distance <= 0 {
		return fmt.Errorf("smd: pull distance must be positive, got %g", p.Distance)
	}
	return nil
}

// Puller is the live spring: a forcefield.Term added to the engine plus
// the work integrator. Advance the schedule with Advance(dt) once per MD
// step (Run does this for you).
type Puller struct {
	kappa  float64
	vel    float64
	axis   vec.V
	atoms  []int
	masses []float64
	mtot   float64

	lambda  float64 // current pulling-atom coordinate along axis
	lambda0 float64
	work    float64 // accumulated external work, kcal/mol

	// lastS caches the COM projection from the latest force evaluation
	// so Advance can integrate the work without recomputing the COM.
	lastS     float64
	haveForce bool
}

// NewPuller attaches a puller to the engine's current state: λ starts at
// the present COM projection so the spring is initially relaxed.
func NewPuller(eng *md.Engine, p Protocol) (*Puller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := eng.State()
	for _, a := range p.Atoms {
		if a < 0 || a >= len(st.Pos) {
			return nil, fmt.Errorf("smd: steered atom %d out of range", a)
		}
	}
	pl := &Puller{
		kappa: p.Kappa,
		vel:   p.Velocity,
		axis:  p.Axis.Unit(),
		atoms: append([]int(nil), p.Atoms...),
	}
	for _, a := range pl.atoms {
		m := st.Mass[a]
		pl.masses = append(pl.masses, m)
		pl.mtot += m
	}
	if pl.mtot <= 0 {
		return nil, fmt.Errorf("smd: steered atoms have zero total mass")
	}
	pl.lambda = pl.project(st.Pos)
	pl.lambda0 = pl.lambda
	return pl, nil
}

// project returns the COM coordinate of the steered atoms along the axis.
func (pl *Puller) project(pos []vec.V) float64 {
	s := 0.0
	for k, a := range pl.atoms {
		s += pl.masses[k] * pos[a].Dot(pl.axis)
	}
	return s / pl.mtot
}

// Name implements forcefield.Term.
func (pl *Puller) Name() string { return "smd-spring" }

// AddForces implements forcefield.Term: E = κ/2·(s-λ)², with the restoring
// force mass-weighted over the steered atoms (standard COM pulling).
func (pl *Puller) AddForces(pos []vec.V, f []vec.V) float64 {
	s := pl.project(pos)
	pl.lastS = s
	pl.haveForce = true
	d := s - pl.lambda
	e := 0.5 * pl.kappa * d * d
	for k, a := range pl.atoms {
		g := -pl.kappa * d * pl.masses[k] / pl.mtot
		f[a].AddScaled(g, pl.axis)
	}
	return e
}

// Advance moves the pulling atom by v·dt and accumulates the external
// work dW = (∂E/∂λ)·dλ = -κ·(s-λ)·v·dt, evaluated with the pre-move λ
// (left-point rule; the sampling interval is far below all other scales).
func (pl *Puller) Advance(dt float64) {
	s := pl.lastS
	dlambda := pl.vel * dt
	pl.work += -pl.kappa * (s - pl.lambda) * dlambda
	pl.lambda += dlambda
}

// Displacement returns λ - λ0, the scheduled COM displacement in Å.
func (pl *Puller) Displacement() float64 { return pl.lambda - pl.lambda0 }

// DisplacementOfCOM returns the actual COM displacement s - λ0 from the
// latest force evaluation (lags Displacement by the spring extension).
func (pl *Puller) DisplacementOfCOM() float64 { return pl.lastS - pl.lambda0 }

// SetLambda positions the pulling atom at displacement d (relative to the
// attach point λ0) without accumulating work — used by the static-window
// restraints of thermodynamic integration (package ti).
func (pl *Puller) SetLambda(d float64) { pl.lambda = pl.lambda0 + d }

// Work returns the accumulated external work in kcal/mol.
func (pl *Puller) Work() float64 { return pl.work }

// SpringForce returns the instantaneous spring force magnitude on the COM
// in kcal/mol/Å (positive = pulling forward); units.PNFromKcalMolA
// converts to the pN readout a haptic device would render.
func (pl *Puller) SpringForce() float64 {
	if !pl.haveForce {
		return 0
	}
	return pl.kappa * (pl.lambda - pl.lastS)
}

// Result is the outcome of one completed pull.
type Result struct {
	Log      *trace.WorkLog
	Steps    int
	FinalS   float64 // final COM projection, Å
	WallFail bool    // reserved for the steering layer: run aborted
}

// PullerState is the resumable snapshot of a Puller's internal state. The
// JSON tags define the dist wire encoding; Go's JSON float formatting
// round-trips float64 exactly, so shipping one preserves bit-exactness.
type PullerState struct {
	Lambda    float64 `json:"lambda"`
	Lambda0   float64 `json:"lambda0"`
	Work      float64 `json:"work"`
	LastS     float64 `json:"lastS"`
	HaveForce bool    `json:"haveForce"`
}

// Snapshot captures the puller's state for a PullCheckpoint.
func (pl *Puller) Snapshot() PullerState {
	return PullerState{Lambda: pl.lambda, Lambda0: pl.lambda0, Work: pl.work, LastS: pl.lastS, HaveForce: pl.haveForce}
}

// RestoreState loads a snapshot, overwriting the attach-time state.
func (pl *Puller) RestoreState(st PullerState) {
	pl.lambda, pl.lambda0, pl.work = st.Lambda, st.Lambda0, st.Work
	pl.lastS, pl.haveForce = st.LastS, st.HaveForce
}

// PullCheckpoint freezes a pull in flight: the engine's dynamical state
// (RNG streams and neighbor-list reference included), the spring's
// schedule position and accumulated work, and the samples recorded so
// far. Restoring one on any machine and continuing reproduces the
// uninterrupted pull bit-exactly.
type PullCheckpoint struct {
	Engine  *trace.Checkpoint
	Puller  PullerState
	Samples []trace.WorkSample
	Steps   int
	Next    int // next sample-grid index
}

// Validate reports a checkpoint no pull can resume from: one with no
// engine image, no samples or no next sample index. RunWithOpts refuses
// such a Resume, and the dist coordinator refuses to store one.
func (c *PullCheckpoint) Validate() error {
	if c.Engine == nil || len(c.Samples) == 0 || c.Next < 1 {
		return fmt.Errorf("smd: malformed pull checkpoint")
	}
	return nil
}

// RunOpts controls checkpointing and resumption of a pull.
type RunOpts struct {
	// Resume continues a pull from a checkpoint instead of starting at
	// the attach point. The engine must have been built from the same
	// system spec and seed as the original.
	Resume *PullCheckpoint
	// CheckpointEvery is the number of recorded samples between
	// OnCheckpoint calls (<= 0 means every sample).
	CheckpointEvery int
	// OnCheckpoint receives each checkpoint; returning an error aborts
	// the pull (used by dist workers when the coordinator is gone).
	OnCheckpoint func(*PullCheckpoint) error
}

// Run executes a complete pull of p.Distance on eng, recording the work
// profile every SampleEvery Å of scheduled displacement. It returns the
// work log ready for jarzynski analysis.
//
// The engine must already contain the puller as a term — use Attach for
// the common case.
func (pl *Puller) Run(eng *md.Engine, p Protocol, seed uint64) (*Result, error) {
	return pl.RunWithOpts(eng, p, seed, RunOpts{})
}

// RunWithOpts is Run with periodic checkpoints and optional resumption.
// The checkpointed run takes the exact same dynamical path as a plain Run:
// checkpoints are pure snapshots between steps and consume no randomness.
func (pl *Puller) RunWithOpts(eng *md.Engine, p Protocol, seed uint64, opts RunOpts) (*Result, error) {
	sample := p.SampleEvery
	if sample <= 0 {
		sample = 0.25
	}
	dt := eng.Timestep()
	if dt <= 0 {
		return nil, fmt.Errorf("smd: engine timestep %g", dt)
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	totalSteps := int(math.Ceil(p.Distance / (pl.vel * dt)))
	// The sample grid is indexed by integer k so every replica of a
	// protocol records the exact same Lambda values regardless of
	// floating-point drift in the λ accumulation.
	nSamples := int(math.Floor(p.Distance/sample + 1e-9))
	gridAt := func(k int) float64 {
		return math.Min(float64(k)*sample, p.Distance)
	}
	log := &trace.WorkLog{Kappa: pl.kappa, Velocity: pl.vel, Seed: seed}
	st := eng.State()
	record := func(lambda float64) {
		log.Samples = append(log.Samples, trace.WorkSample{
			Lambda: lambda,
			Z:      pl.project(st.Pos) - pl.lambda0,
			Work:   pl.work,
		})
	}

	next, steps, sinceCkpt := 1, 0, 0 // next is the next sample-grid index
	if r := opts.Resume; r != nil {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if err := eng.Restore(r.Engine); err != nil {
			return nil, fmt.Errorf("smd: resuming pull: %w", err)
		}
		pl.RestoreState(r.Puller)
		log.Samples = append(log.Samples, r.Samples...)
		steps, next = r.Steps, r.Next
	} else {
		record(0)
	}

	for pl.Displacement() < p.Distance-1e-9 && steps < totalSteps+1 {
		eng.Step()
		pl.Advance(dt)
		steps++
		recorded := false
		for next <= nSamples && pl.Displacement() >= gridAt(next)-1e-9 {
			record(gridAt(next))
			next++
			recorded = true
		}
		if recorded && opts.OnCheckpoint != nil {
			if sinceCkpt++; sinceCkpt >= every {
				sinceCkpt = 0
				ck := &PullCheckpoint{
					Engine:  eng.Checkpoint(),
					Puller:  pl.Snapshot(),
					Samples: append([]trace.WorkSample(nil), log.Samples...),
					Steps:   steps,
					Next:    next,
				}
				if err := opts.OnCheckpoint(ck); err != nil {
					return nil, err
				}
			}
		}
	}
	// Guarantee the terminal sample at Distance even if FP drift left the
	// last grid point unreached.
	if last := log.Samples[len(log.Samples)-1].Lambda; last < p.Distance-1e-9 {
		record(p.Distance)
	}
	return &Result{Log: log, Steps: steps, FinalS: pl.project(st.Pos)}, nil
}

// Attach creates a puller, registers it with the engine and returns it.
func Attach(eng *md.Engine, p Protocol) (*Puller, error) {
	pl, err := NewPuller(eng, p)
	if err != nil {
		return nil, err
	}
	eng.AddTerm(pl)
	return pl, nil
}

// PaperProtocol builds a Protocol from the paper's parameter conventions:
// κ in pN/Å and v in Å/ns, pulling the given atoms along -z (vestibule
// mouth toward the barrel, the translocation direction of Fig. 3) over a
// 10 Å sub-trajectory.
func PaperProtocol(kappaPN, vAns float64, atoms []int) Protocol {
	return Protocol{
		Kappa:    units.SpringFromPaper(kappaPN),
		Velocity: units.VelocityFromPaper(vAns),
		Axis:     vec.V{Z: -1},
		Atoms:    atoms,
		Distance: 10,
	}
}
