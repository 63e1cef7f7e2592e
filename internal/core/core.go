// Package core is the top of the SPICE stack: it wires the coarse-grained
// translocation system, the SMD pulling protocol, the Jarzynski analysis
// and the campaign runner into the paper's three-phase pipeline —
//
//  1. exploratory/interactive phase (package imd + steering) to choose the
//     parameter ranges;
//  2. priming sweep over (κ, v) with cost-normalized error analysis,
//     reproducing Fig. 4 and selecting the optimal parameters;
//  3. production campaign computing the PMF with the chosen parameters.
//
// All parameters are expressed in the paper's units (κ in pN/Å, v in
// Å/ns); conversions happen at the boundary.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"spice/internal/campaign"
	"spice/internal/jarzynski"
	"spice/internal/md"
	"spice/internal/trace"
	"spice/internal/xrand"
)

// SystemConfig describes the model system pulls run on.
type SystemConfig struct {
	// Beads is the ssDNA length in nucleotides.
	Beads int
	// StartZ places the leading bead; the default positions the
	// sub-trajectory across the pore constriction, the paper's §IV.A
	// choice ("a sub-trajectory of length 10 Å close to the centre of
	// the pore ... most likely to be free of boundary effects").
	StartZ float64
	// EquilSteps is the Langevin equilibration run before the spring
	// attaches.
	EquilSteps int
	// DT is the MD timestep in ps.
	DT float64
	// Temp is the thermostat temperature in K.
	Temp float64
	// PoreFriction scales the Langevin friction inside the pore lumen
	// (see md.TranslocationSpec). The sweep default is 1: the Fig. 4
	// parameter study probes estimator statistics over a 10 Å window,
	// and the paper's dissipation gradation across v is already present
	// at bulk friction — the 5x confined-water enhancement used by the
	// full translocation runs would drown the slow-pull ensembles in
	// dissipation noise at these replica counts.
	PoreFriction float64
	// EngineWorkers is ignored: an engine sums its forces serially, so
	// a trajectory no longer depends on it. It is kept, and still
	// range-checked by Validate, so that existing -system documents
	// decode unchanged and benchmark/workload.go still compiles.
	EngineWorkers int
}

// DefaultSystem returns the standard sweep system: a short strand with its
// leading bead poised just above the constriction.
func DefaultSystem() SystemConfig {
	return SystemConfig{Beads: 8, StartZ: 5, EquilSteps: 1000, DT: 0.01, Temp: 300, PoreFriction: 1}
}

// Validate reports a system no pull can run. Its caps sit far above
// anything shipped (8 and 24 beads, 1000 equilibration steps): Beads must
// be in [1, 1000], EquilSteps in [0, 1e6] and EngineWorkers in [0, 256];
// DT, Temp and PoreFriction must be finite and >= 0, StartZ finite.
// Build runs it, so a worker refuses a bad payload before building, and
// spiced -serve runs it on -system before it listens.
func (sc SystemConfig) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case sc.Beads < 1 || sc.Beads > 1000:
		return fmt.Errorf("core: system needs 1 to 1000 beads, got %d", sc.Beads)
	case sc.EquilSteps < 0 || sc.EquilSteps > 1_000_000:
		return fmt.Errorf("core: EquilSteps %d outside [0, 1e6]", sc.EquilSteps)
	case sc.EngineWorkers < 0 || sc.EngineWorkers > 256:
		return fmt.Errorf("core: EngineWorkers %d outside [0, 256]", sc.EngineWorkers)
	case !finite(sc.StartZ):
		return fmt.Errorf("core: StartZ %g is not finite", sc.StartZ)
	case !finite(sc.DT) || sc.DT < 0:
		return fmt.Errorf("core: DT %g must be finite and >= 0", sc.DT)
	case !finite(sc.Temp) || sc.Temp < 0:
		return fmt.Errorf("core: Temp %g must be finite and >= 0", sc.Temp)
	case !finite(sc.PoreFriction) || sc.PoreFriction < 0:
		return fmt.Errorf("core: PoreFriction %g must be finite and >= 0", sc.PoreFriction)
	}
	return nil
}

// Build constructs a fresh translocation engine for one pull. Exported
// so dist workers can rebuild the identical system from a SystemConfig
// shipped over the wire.
func (sc SystemConfig) Build(seed uint64) (*md.Engine, []int, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	spec := md.DefaultTranslocation(sc.Beads)
	spec.DNA.StartZ = sc.StartZ
	spec.DNA.Backbone.Z = 1 // chain extends upward; lead bead enters first
	spec.Seed = seed
	spec.PoreFriction = sc.PoreFriction
	if sc.DT > 0 {
		spec.DT = sc.DT
	}
	if sc.Temp > 0 {
		spec.Temp = sc.Temp
	}
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		return nil, nil, err
	}
	ts.Engine.Run(sc.EquilSteps) // Validate rules out a negative count
	return ts.Engine, ts.DNA[:1], nil
}

// BuildFromJSON decodes a JSON-encoded SystemConfig — the opaque system
// payload a dist coordinator ships to its workers — and builds the pull
// system. Its signature matches dist.BuildFunc, so cmd/spiced's workers,
// external and in-process, plug it in directly; dist itself never needs
// to know this package exists.
func BuildFromJSON(system json.RawMessage, _ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
	var sc SystemConfig
	if err := json.Unmarshal(system, &sc); err != nil {
		return nil, nil, fmt.Errorf("core: decoding system config: %w", err)
	}
	return sc.Build(seed)
}

// SweepConfig drives the priming phase.
type SweepConfig struct {
	System SystemConfig
	// Kappas (pN/Å) and Velocities (Å/ns) span the sweep.
	Kappas     []float64
	Velocities []float64
	// Replicas at the slowest velocity; faster velocities get
	// proportionally more (equal cost), per the paper's normalization.
	Replicas int
	// Distance is the sub-trajectory length in Å.
	Distance float64
	// Estimator for the PMFs (default Cumulant2).
	Estimator jarzynski.Estimator
	// Resamples for the bootstrap errors (default 200).
	Resamples int
	// Reference overrides the reference PMF used for systematic errors;
	// nil computes one from a dedicated slow stiff-spring run.
	Reference []float64
	// RefVelocity (Å/ns) and RefKappa (pN/Å) parameterize that run.
	RefVelocity float64
	RefKappa    float64
	RefReplicas int

	Workers int
	Seed    uint64
	// Runner overrides how the campaign's pulls are executed (e.g. the
	// dist coordinator fanning out to worker processes). nil runs
	// in-process with a LocalRunner.
	Runner campaign.Runner
}

// PaperSweep is the Fig. 4 configuration.
func PaperSweep() SweepConfig {
	return SweepConfig{
		System:      DefaultSystem(),
		Kappas:      []float64{10, 100, 1000},
		Velocities:  []float64{12.5, 25, 50, 100},
		Replicas:    2,
		Distance:    10,
		Estimator:   jarzynski.Cumulant2,
		Resamples:   200,
		RefVelocity: 6.25,
		RefKappa:    300,
		RefReplicas: 4,
		Seed:        2005,
	}
}

// SweepResult is the priming phase outcome.
type SweepResult struct {
	// Points holds one analyzed curve per (κ, v) combination, in the
	// deterministic sweep order.
	Points []jarzynski.ParamPoint
	// Grid is the common displacement grid.
	Grid []float64
	// Reference is the profile systematic errors were measured against.
	Reference []float64
	// Best is the paper-logic optimum.
	Best jarzynski.ParamPoint
	// Logs retains the raw work logs per combo for archival.
	Logs map[campaign.Combo][]*trace.WorkLog
}

// CurvesForKappa returns the points with the given κ, ordered by velocity
// — one panel of Fig. 4a-c.
func (r *SweepResult) CurvesForKappa(kappaPN float64) []jarzynski.ParamPoint {
	var out []jarzynski.ParamPoint
	for _, p := range r.Points {
		if p.KappaPaper == kappaPN {
			out = append(out, p)
		}
	}
	return out
}

// CurvesForVelocity returns the points with the given v — Fig. 4d.
func (r *SweepResult) CurvesForVelocity(vAns float64) []jarzynski.ParamPoint {
	var out []jarzynski.ParamPoint
	for _, p := range r.Points {
		if p.VPaper == vAns {
			out = append(out, p)
		}
	}
	return out
}

// RunSweep executes the priming sweep: the reference run, then every
// (κ, v) ensemble, each analyzed into a ParamPoint, and the optimum
// selected. This is the computational heart of the reproduction.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Kappas) == 0 || len(cfg.Velocities) == 0 {
		return nil, errors.New("core: empty parameter sweep")
	}
	if cfg.Replicas < 2 {
		return nil, errors.New("core: need at least 2 replicas for error analysis")
	}
	if cfg.Distance <= 0 {
		return nil, errors.New("core: pull distance must be positive")
	}
	if cfg.Resamples == 0 {
		cfg.Resamples = 200
	}
	temp := cfg.System.Temp
	if temp == 0 {
		temp = 300
	}

	runner := cfg.Runner
	if runner == nil {
		runner = &campaign.LocalRunner{
			Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
				return cfg.System.Build(seed)
			},
			Workers: cfg.Workers,
		}
	}

	// Reference: slow, stiff, exponential estimator.
	ref := cfg.Reference
	var grid []float64
	if ref == nil {
		if cfg.RefVelocity <= 0 || cfg.RefKappa <= 0 {
			return nil, errors.New("core: reference run needs RefVelocity and RefKappa")
		}
		n := cfg.RefReplicas
		if n < 2 {
			n = 2
		}
		refSpec := campaign.Spec{
			Kappas:       []float64{cfg.RefKappa},
			Velocities:   []float64{cfg.RefVelocity},
			Replicas:     n,
			EqualSamples: true,
			Distance:     cfg.Distance,
			Seed:         cfg.Seed ^ 0x5eed,
		}
		logs, err := runner.Run(refSpec)
		if err != nil {
			return nil, fmt.Errorf("core: reference run: %w", err)
		}
		ens, err := jarzynski.NewEnsemble(temp, logs[campaign.Combo{KappaPN: cfg.RefKappa, VAns: cfg.RefVelocity}])
		if err != nil {
			return nil, err
		}
		ref, err = ens.PMF(jarzynski.Exponential)
		if err != nil {
			return nil, err
		}
		grid = ens.Grid
	}

	sweepSpec := campaign.Spec{
		Kappas:     cfg.Kappas,
		Velocities: cfg.Velocities,
		Replicas:   cfg.Replicas,
		Distance:   cfg.Distance,
		Seed:       cfg.Seed,
	}
	logs, err := runner.Run(sweepSpec)
	if err != nil {
		return nil, fmt.Errorf("core: sweep: %w", err)
	}

	vmin := cfg.Velocities[0]
	for _, v := range cfg.Velocities[1:] {
		if v < vmin {
			vmin = v
		}
	}

	res := &SweepResult{Reference: ref, Grid: grid, Logs: logs}
	rng := xrand.New(cfg.Seed ^ 0xe44)
	for _, c := range sweepSpec.Combos() {
		ens, err := jarzynski.NewEnsemble(temp, logs[c])
		if err != nil {
			return nil, fmt.Errorf("core: combo %s: %w", c, err)
		}
		pmf, err := ens.PMF(cfg.Estimator)
		if err != nil {
			return nil, err
		}
		sigStat, err := ens.CostNormalizedStatError(cfg.Estimator, cfg.Resamples, rng, vmin/1000)
		if err != nil {
			return nil, err
		}
		point := jarzynski.ParamPoint{
			KappaPaper: c.KappaPN,
			VPaper:     c.VAns,
			Grid:       ens.Grid,
			PMF:        pmf,
			SigmaStat:  sigStat,
			Samples:    ens.N(),
		}
		if len(ref) == len(pmf) {
			sys, err := jarzynski.SystematicError(pmf, ref)
			if err != nil {
				return nil, err
			}
			point.SigmaSys = sys
		}
		if res.Grid == nil {
			res.Grid = ens.Grid
		}
		res.Points = append(res.Points, point)
	}

	best, err := jarzynski.Optimize(res.Points, 0.1)
	if err != nil {
		return nil, err
	}
	res.Best = best
	return res, nil
}

// ProductionConfig drives the final phase: the full PMF at the optimal
// parameters.
type ProductionConfig struct {
	System   SystemConfig
	KappaPN  float64
	VAns     float64
	Replicas int
	Distance float64
	Workers  int
	Seed     uint64
	// Estimator defaults to Exponential for production.
	Estimator jarzynski.Estimator
	// Runner overrides pull execution like SweepConfig.Runner.
	Runner campaign.Runner
}

// ProductionResult is the final PMF with errors.
type ProductionResult struct {
	Grid      []float64
	PMF       []float64
	SigmaStat []float64
	// TotalSteps is the MD steps actually executed — feeds the
	// SMD-JE-vs-vanilla reduction-factor accounting.
	TotalSteps int
}

// RunProduction computes the production PMF.
func RunProduction(cfg ProductionConfig) (*ProductionResult, error) {
	if cfg.Replicas < 2 {
		return nil, errors.New("core: production needs >= 2 replicas")
	}
	temp := cfg.System.Temp
	if temp == 0 {
		temp = 300
	}
	runner := cfg.Runner
	if runner == nil {
		runner = &campaign.LocalRunner{
			Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
				return cfg.System.Build(seed)
			},
			Workers: cfg.Workers,
		}
	}
	spec := campaign.Spec{
		Kappas:       []float64{cfg.KappaPN},
		Velocities:   []float64{cfg.VAns},
		Replicas:     cfg.Replicas,
		EqualSamples: true,
		Distance:     cfg.Distance,
		Seed:         cfg.Seed,
	}
	logs, err := runner.Run(spec)
	if err != nil {
		return nil, err
	}
	combo := campaign.Combo{KappaPN: cfg.KappaPN, VAns: cfg.VAns}
	ens, err := jarzynski.NewEnsemble(temp, logs[combo])
	if err != nil {
		return nil, err
	}
	pmf, err := ens.PMF(cfg.Estimator)
	if err != nil {
		return nil, err
	}
	sig, err := ens.StatError(cfg.Estimator, 200, xrand.New(cfg.Seed^0xabc))
	if err != nil {
		return nil, err
	}
	steps := 0
	for _, wl := range logs[combo] {
		// Each pull simulated Distance/v ns at the engine timestep.
		dt := cfg.System.DT
		if dt == 0 {
			dt = 0.01
		}
		steps += int(cfg.Distance / (wl.Velocity * dt))
	}
	return &ProductionResult{Grid: ens.Grid, PMF: pmf, SigmaStat: sig, TotalSteps: steps}, nil
}
