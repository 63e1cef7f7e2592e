package smd

import (
	"math"
	"testing"

	"spice/internal/forcefield"
	"spice/internal/md"
	"spice/internal/topology"
	"spice/internal/units"
	"spice/internal/vec"
)

// freeBead builds a single mobile bead with no potential except any terms
// the test adds.
func freeBead(t *testing.T, seed uint64, terms ...forcefield.Term) *md.Engine {
	t.Helper()
	top := topology.New()
	top.AddAtom(topology.Atom{Kind: topology.KindDNA, Mass: 325, Radius: 3})
	eng, err := md.New(md.Config{
		Top:   top,
		Init:  []vec.V{{}},
		Terms: terms,
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestProtocolValidation(t *testing.T) {
	base := Protocol{Kappa: 1, Velocity: 1, Axis: vec.V{Z: 1}, Atoms: []int{0}, Distance: 10}
	bad := []func(p *Protocol){
		func(p *Protocol) { p.Kappa = 0 },
		func(p *Protocol) { p.Velocity = -1 },
		func(p *Protocol) { p.Axis = vec.Zero },
		func(p *Protocol) { p.Atoms = nil },
		func(p *Protocol) { p.Distance = 0 },
	}
	for i, mutate := range bad {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid protocol accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid protocol rejected: %v", err)
	}
}

func TestNewPullerChecksAtoms(t *testing.T) {
	eng := freeBead(t, 1)
	p := Protocol{Kappa: 1, Velocity: 0.01, Axis: vec.V{Z: 1}, Atoms: []int{5}, Distance: 1}
	if _, err := NewPuller(eng, p); err == nil {
		t.Fatal("out-of-range steered atom accepted")
	}
}

func TestPullerStartsRelaxed(t *testing.T) {
	eng := freeBead(t, 2)
	pl, err := NewPuller(eng, Protocol{Kappa: 2, Velocity: 0.01, Axis: vec.V{Z: -1}, Atoms: []int{0}, Distance: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]vec.V, 1)
	e := pl.AddForces(eng.State().Pos, f)
	if e != 0 || f[0].Norm() != 0 {
		t.Fatalf("initial spring not relaxed: e=%v f=%v", e, f[0])
	}
	if pl.Displacement() != 0 || pl.Work() != 0 {
		t.Fatal("initial displacement/work nonzero")
	}
}

func TestSpringForceDirection(t *testing.T) {
	eng := freeBead(t, 3)
	pl, err := NewPuller(eng, Protocol{Kappa: 2, Velocity: 0.01, Axis: vec.V{Z: 1}, Atoms: []int{0}, Distance: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Move λ forward while the bead stays: spring pulls bead along +z.
	pl.lastS = 0
	pl.haveForce = true
	pl.Advance(100) // λ advances by 1 Å
	f := make([]vec.V, 1)
	pl.AddForces([]vec.V{{}}, f)
	if f[0].Z <= 0 {
		t.Fatalf("spring should pull +z, got %v", f[0])
	}
	if pl.SpringForce() <= 0 {
		t.Fatalf("spring force should be positive (forward), got %v", pl.SpringForce())
	}
}

func TestWorkIsPositiveWhenDragging(t *testing.T) {
	eng := freeBead(t, 4)
	p := Protocol{
		Kappa:    units.SpringFromPaper(100),
		Velocity: units.VelocityFromPaper(100),
		Axis:     vec.V{Z: 1},
		Atoms:    []int{0},
		Distance: 5,
	}
	pl, err := Attach(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(eng, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps taken")
	}
	// Dragging a bead through friction always costs some work on
	// average; it must at least not be strongly negative.
	if pl.Work() < -0.5 {
		t.Fatalf("work = %v strongly negative for a drag", pl.Work())
	}
	// Scheduled displacement reached.
	if math.Abs(pl.Displacement()-5) > 0.01 {
		t.Fatalf("displacement = %v, want 5", pl.Displacement())
	}
}

func TestRunRecordsMonotoneGrid(t *testing.T) {
	eng := freeBead(t, 5)
	p := Protocol{
		Kappa:       units.SpringFromPaper(100),
		Velocity:    units.VelocityFromPaper(200),
		Axis:        vec.V{Z: -1},
		Atoms:       []int{0},
		Distance:    4,
		SampleEvery: 0.5,
	}
	pl, err := Attach(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(eng, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	log := res.Log
	// Expect samples at 0, 0.5, ..., 4.0 → 9 samples.
	if len(log.Samples) != 9 {
		t.Fatalf("samples = %d, want 9", len(log.Samples))
	}
	for i, s := range log.Samples {
		want := 0.5 * float64(i)
		if math.Abs(s.Lambda-want) > 0.05 {
			t.Fatalf("sample %d at λ=%v, want ~%v", i, s.Lambda, want)
		}
		if i > 0 && s.Lambda <= log.Samples[i-1].Lambda {
			t.Fatal("grid not monotone")
		}
	}
	if log.Kappa != p.Kappa || log.Velocity != p.Velocity || log.Seed != 5 {
		t.Fatalf("log header: %+v", log)
	}
}

func TestStiffSpringTracksSchedule(t *testing.T) {
	// With a very stiff spring the COM must track λ closely.
	eng := freeBead(t, 6)
	p := Protocol{
		Kappa:    units.SpringFromPaper(1000),
		Velocity: units.VelocityFromPaper(100),
		Axis:     vec.V{Z: 1},
		Atoms:    []int{0},
		Distance: 6,
	}
	pl, err := Attach(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(eng, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Log.Samples {
		if math.Abs(s.Z-s.Lambda) > 1.0 {
			t.Fatalf("stiff spring lag: z=%v λ=%v", s.Z, s.Lambda)
		}
	}
}

func TestSoftSpringLagsMore(t *testing.T) {
	lag := func(kappaPN float64) float64 {
		eng := freeBead(t, 7)
		p := Protocol{
			Kappa:    units.SpringFromPaper(kappaPN),
			Velocity: units.VelocityFromPaper(400),
			Axis:     vec.V{Z: 1},
			Atoms:    []int{0},
			Distance: 8,
		}
		pl, err := Attach(eng, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Run(eng, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, s := range res.Log.Samples {
			total += math.Abs(s.Lambda - s.Z)
		}
		return total / float64(len(res.Log.Samples))
	}
	soft, stiff := lag(10), lag(1000)
	if soft <= stiff {
		t.Fatalf("soft spring should lag more: soft=%v stiff=%v", soft, stiff)
	}
}

func TestPaperProtocol(t *testing.T) {
	p := PaperProtocol(100, 12.5, []int{0})
	if math.Abs(p.Kappa-units.SpringFromPaper(100)) > 1e-12 {
		t.Fatal("kappa conversion wrong")
	}
	if math.Abs(p.Velocity-0.0125) > 1e-15 {
		t.Fatal("velocity conversion wrong")
	}
	if p.Distance != 10 {
		t.Fatal("paper sub-trajectory is 10 Å")
	}
	if p.Axis.Z != -1 {
		t.Fatal("paper pulls toward the barrel (-z)")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCOMPullingMultiAtom(t *testing.T) {
	// Pull a 2-bead molecule by COM: both beads feel mass-weighted force.
	top := topology.New()
	top.AddAtom(topology.Atom{Mass: 100, Radius: 1})
	top.AddAtom(topology.Atom{Mass: 300, Radius: 1})
	eng, err := md.New(md.Config{Top: top, Init: []vec.V{{}, {X: 3}}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := Protocol{Kappa: 5, Velocity: 0.05, Axis: vec.V{Z: 1}, Atoms: []int{0, 1}, Distance: 2}
	pl, err := NewPuller(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	// Advance λ by 1 Å with the COM pinned at z=0.
	pl.lastS = 0
	pl.haveForce = true
	pl.Advance(20)
	f := make([]vec.V, 2)
	pl.AddForces([]vec.V{{}, {X: 3}}, f)
	// F_total = κ·(λ-s) = 5; split 1:3 by mass.
	if math.Abs(f[0].Z-5.0/4) > 1e-9 || math.Abs(f[1].Z-15.0/4) > 1e-9 {
		t.Fatalf("mass-weighted split wrong: %v %v", f[0].Z, f[1].Z)
	}
}

// buildPullSystem constructs the small translocation system the resume
// tests pull on, mirroring the campaign execution path (build + equilibrate
// + attach).
func buildPullSystem(t *testing.T, seed uint64) (*md.Engine, []int) {
	t.Helper()
	spec := md.DefaultTranslocation(3)
	spec.Seed = seed
	spec.DT = 0.02
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts.Engine.Run(100)
	return ts.Engine, ts.DNA[:1]
}

func runPull(t *testing.T, seed uint64, opts RunOpts) (*Result, error) {
	t.Helper()
	eng, atoms := buildPullSystem(t, seed)
	p := PaperProtocol(100, 400, atoms)
	p.Distance = 3
	pl, err := Attach(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl.RunWithOpts(eng, p, seed, opts)
}

// TestRunWithOptsMatchesRun pins that checkpointing is observation-only:
// a run that takes checkpoints at every sample produces the identical log.
func TestRunWithOptsMatchesRun(t *testing.T) {
	plain, err := runPull(t, 21, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	nCkpts := 0
	ckpted, err := runPull(t, 21, RunOpts{OnCheckpoint: func(*PullCheckpoint) error { nCkpts++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if nCkpts < 4 {
		t.Fatalf("only %d checkpoints taken", nCkpts)
	}
	if len(plain.Log.Samples) != len(ckpted.Log.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(plain.Log.Samples), len(ckpted.Log.Samples))
	}
	for i := range plain.Log.Samples {
		if plain.Log.Samples[i] != ckpted.Log.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, plain.Log.Samples[i], ckpted.Log.Samples[i])
		}
	}
}

// errAbort simulates a worker death mid-pull.
type abortErr struct{}

func (abortErr) Error() string { return "aborted" }

// TestResumeBitExact is the core property the dist runtime relies on: a
// pull killed mid-flight and resumed from its checkpoint on a fresh engine
// yields the bit-identical work log of an uninterrupted pull.
func TestResumeBitExact(t *testing.T) {
	const seed = 33
	full, err := runPull(t, seed, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: capture the checkpoint after the 3rd sample, then die.
	var saved *PullCheckpoint
	n := 0
	_, err = runPull(t, seed, RunOpts{OnCheckpoint: func(ck *PullCheckpoint) error {
		if n++; n == 3 {
			saved = ck
			return abortErr{}
		}
		return nil
	}})
	if _, ok := err.(abortErr); !ok {
		t.Fatalf("expected abort, got %v", err)
	}
	if saved == nil || len(saved.Samples) == 0 {
		t.Fatal("no checkpoint captured")
	}
	if len(saved.Samples) >= len(full.Log.Samples) {
		t.Fatalf("checkpoint is not mid-pull: %d of %d samples", len(saved.Samples), len(full.Log.Samples))
	}

	// Resume on a fresh engine — the "another worker" of the dist story.
	resumed, err := runPull(t, seed, RunOpts{Resume: saved})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Log.Samples) != len(full.Log.Samples) {
		t.Fatalf("resumed log has %d samples, want %d", len(resumed.Log.Samples), len(full.Log.Samples))
	}
	for i := range full.Log.Samples {
		if full.Log.Samples[i] != resumed.Log.Samples[i] {
			t.Fatalf("sample %d differs after resume: %+v vs %+v", i, resumed.Log.Samples[i], full.Log.Samples[i])
		}
	}
	if full.Steps != resumed.Steps || full.FinalS != resumed.FinalS {
		t.Fatalf("result metadata differs: steps %d vs %d, finalS %v vs %v",
			resumed.Steps, full.Steps, resumed.FinalS, full.FinalS)
	}
}

func TestResumeRejectsMalformedCheckpoint(t *testing.T) {
	if _, err := runPull(t, 5, RunOpts{Resume: &PullCheckpoint{}}); err == nil {
		t.Fatal("empty checkpoint accepted")
	}
}
