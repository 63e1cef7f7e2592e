package md

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"spice/internal/forcefield"
	"spice/internal/topology"
	"spice/internal/trace"
	"spice/internal/vec"
	"spice/internal/xrand"
)

// smallChain builds a free 8-bead chain with bonds and nonbonded terms.
func smallChain(t *testing.T, seed uint64) *Engine {
	t.Helper()
	top := topology.New()
	p := topology.DefaultDNA(8)
	_, pos, err := topology.BuildDNA(top, p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Top:  top,
		Init: pos,
		Terms: []forcefield.Term{
			forcefield.Bonds{Top: top},
			forcefield.Angles{Top: top},
		},
		Pair: &forcefield.Combined{
			Core: forcefield.WCA{Epsilon: 0.3, MaxCut: 12},
			Elec: forcefield.DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24},
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	top := topology.New()
	top.AddAtom(topology.Atom{Mass: 1})
	if _, err := New(Config{Top: top}); err == nil {
		t.Fatal("missing positions accepted")
	}
	if _, err := New(Config{Top: top, Init: make([]vec.V, 1), DT: -1}); err == nil {
		t.Fatal("negative dt accepted")
	}
}

func TestEngineRunAdvances(t *testing.T) {
	eng := smallChain(t, 1)
	eng.Run(50)
	st := eng.State()
	if st.Step != 50 {
		t.Fatalf("step = %d", st.Step)
	}
	if math.Abs(st.Time-0.5) > 1e-9 {
		t.Fatalf("time = %v", st.Time)
	}
	for i, p := range st.Pos {
		if !p.IsFinite() {
			t.Fatalf("atom %d at non-finite position %v", i, p)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	a := smallChain(t, 42)
	b := smallChain(t, 42)
	a.Run(200)
	b.Run(200)
	for i := range a.State().Pos {
		if a.State().Pos[i] != b.State().Pos[i] {
			t.Fatalf("same-seed runs diverged at atom %d", i)
		}
	}
	c := smallChain(t, 43)
	c.Run(200)
	same := true
	for i := range a.State().Pos {
		if a.State().Pos[i] != c.State().Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestConcurrentStepCheckpointFrame stresses the public concurrency
// contract (Step vs Checkpoint vs Frame from other goroutines, as the IMD
// layer drives them); run under -race it pins that contract data-race
// free.
func TestConcurrentStepCheckpointFrame(t *testing.T) {
	top := topology.New()
	p := topology.DefaultDNA(200)
	p.AngleK = 0
	_, pos, err := topology.BuildDNA(top, p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Top:   top,
		Init:  pos,
		Terms: []forcefield.Term{forcefield.Bonds{Top: top}},
		Pair: &forcefield.Combined{
			Core: forcefield.WCA{Epsilon: 0.3, MaxCut: 12},
			Elec: forcefield.DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24},
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Run(100)
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			if eng.State().Step != 100 {
				t.Fatalf("step = %d", eng.State().Step)
			}
			return
		default:
			ck := eng.Checkpoint()
			fr := eng.Frame()
			if len(ck.Pos) != top.N() || len(fr.Pos) != top.N() {
				t.Fatal("snapshot wrong size")
			}
		}
	}
}

// TestCloneTermsNotAliased is the regression test for the Clone aliasing
// bug: parent and clone appending terms concurrently used to write the
// same backing-array slot.
func TestCloneTermsNotAliased(t *testing.T) {
	a := smallChain(t, 77)
	a.Run(10)
	clone, err := a.Clone(78)
	if err != nil {
		t.Fatal(err)
	}
	parentTerm := forcefield.Bonds{Top: a.Topology()}
	cloneTerm := forcefield.Angles{Top: clone.Topology()}
	a.AddTerm(parentTerm)
	clone.AddTerm(cloneTerm)
	if got := a.cfg.Terms[len(a.cfg.Terms)-1]; got != forcefield.Term(parentTerm) {
		t.Fatalf("clone's AddTerm overwrote parent's term slot: %T", got)
	}
	if got := clone.cfg.Terms[len(clone.cfg.Terms)-1]; got != forcefield.Term(cloneTerm) {
		t.Fatalf("parent's AddTerm overwrote clone's term slot: %T", got)
	}
	// Both engines must still step cleanly with their own term sets.
	a.Step()
	clone.Step()
}

func TestMomentumConservationOfInternalForces(t *testing.T) {
	eng := smallChain(t, 5)
	f := make([]vec.V, eng.Topology().N())
	eng.forces(eng.State().Pos, f)
	sum := vec.Sum(f)
	if sum.Norm() > 1e-9 {
		t.Fatalf("internal forces sum to %v", sum)
	}
}

func TestCheckpointRestoreResumesIdentically(t *testing.T) {
	a := smallChain(t, 11)
	a.Run(100)
	ck := a.Checkpoint()

	// Continue original.
	a.Run(100)

	// Restore into a fresh engine with the same seed: the integrator RNG
	// stream differs (it has advanced in a), so compare restart-vs-
	// restart instead.
	b := smallChain(t, 11)
	if err := b.Restore(ck); err != nil {
		t.Fatal(err)
	}
	c := smallChain(t, 11)
	if err := c.Restore(ck); err != nil {
		t.Fatal(err)
	}
	b.Run(100)
	c.Run(100)
	for i := range b.State().Pos {
		if b.State().Pos[i] != c.State().Pos[i] {
			t.Fatalf("restored twins diverged at atom %d", i)
		}
	}
	if b.State().Step != 200 {
		t.Fatalf("restored step = %d", b.State().Step)
	}
}

func TestRestoreRejectsWrongSize(t *testing.T) {
	a := smallChain(t, 1)
	ck := a.Checkpoint()
	ck.Pos = ck.Pos[:3]
	ck.Vel = ck.Vel[:3]
	if err := a.Restore(ck); err == nil {
		t.Fatal("wrong-size checkpoint accepted")
	}
}

// TestRestoreRejectsShortRNG: an RNG block must carry both the engine
// and the thermostat stream in whole snapshots; anything else is refused
// before the engine's state is touched.
func TestRestoreRejectsShortRNG(t *testing.T) {
	a := smallChain(t, 3)
	a.Run(10)
	ck := a.Checkpoint()
	a.Run(10)
	want := a.Checkpoint()
	for _, rng := range [][]uint64{
		ck.RNG[:xrand.SnapshotLen],      // the engine stream alone
		ck.RNG[:xrand.SnapshotLen+1],    // ragged, one stream and a word
		append(slices.Clone(ck.RNG), 0), // ragged, both streams and a word
	} {
		bad := *ck
		bad.RNG = rng
		if err := a.Restore(&bad); err == nil {
			t.Fatalf("RNG block of %d words accepted", len(bad.RNG))
		}
		got := a.Checkpoint()
		if got.Step != want.Step || got.Pos[0] != want.Pos[0] || !slices.Equal(got.RNG, want.RNG) {
			t.Fatalf("refused %d-word RNG block still changed the engine", len(bad.RNG))
		}
	}
}

func TestCloneDoesNotPerturbOriginal(t *testing.T) {
	a := smallChain(t, 21)
	a.Run(50)
	ref := a.Checkpoint()

	clone, err := a.Clone(99)
	if err != nil {
		t.Fatal(err)
	}
	clone.Run(200)

	// Original state untouched by the clone's run.
	now := a.Checkpoint()
	for i := range ref.Pos {
		if ref.Pos[i] != now.Pos[i] || ref.Vel[i] != now.Vel[i] {
			t.Fatalf("clone perturbed original at atom %d", i)
		}
	}
	// Clone starts from the same state...
	if clone.State().Step != ref.Step+200 {
		t.Fatalf("clone step = %d", clone.State().Step)
	}
	// ...but with a different RNG stream diverges from the original's
	// future.
	a.Run(200)
	same := true
	for i := range a.State().Pos {
		if a.State().Pos[i] != clone.State().Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clone with different seed tracked the original exactly")
	}
}

func TestEnergiesBreakdown(t *testing.T) {
	eng := smallChain(t, 1)
	eng.Step()
	en := eng.Energies()
	for _, key := range []string{"bond", "angle", "nonbonded"} {
		if _, ok := en[key]; !ok {
			t.Fatalf("missing energy term %q in %v", key, en)
		}
	}
}

func TestExternalForceAffectsDynamics(t *testing.T) {
	a := smallChain(t, 31)
	b := smallChain(t, 31)
	b.External.Set(0, vec.V{Z: 50})
	a.Run(200)
	b.Run(200)
	// The pushed bead should end up displaced along +z relative to twin.
	dz := b.State().Pos[0].Z - a.State().Pos[0].Z
	if dz <= 0 {
		t.Fatalf("external +z force displaced bead by %v", dz)
	}
}

func TestBuildTranslocation(t *testing.T) {
	spec := DefaultTranslocation(12)
	spec.Seed = 3
	ts, err := BuildTranslocation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.DNA) != 12 {
		t.Fatalf("DNA beads = %d", len(ts.DNA))
	}
	// Leading bead starts above the vestibule mouth.
	if ts.LeadZ() <= spec.Pore.VestibuleLength {
		t.Fatalf("lead z = %v", ts.LeadZ())
	}
	if ext := ts.StrandExtension(); math.Abs(ext-11*spec.DNA.BondR0) > 1e-6 {
		t.Fatalf("initial extension = %v", ext)
	}
	// Short run stays finite and thermalizes.
	ts.Engine.Run(200)
	for _, p := range ts.Engine.State().Pos {
		if !p.IsFinite() {
			t.Fatal("non-finite position after run")
		}
	}
}

func TestBuildTranslocationWithWalls(t *testing.T) {
	spec := DefaultTranslocation(6)
	spec.NoWalls = false
	ts, err := BuildTranslocation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Walls) == 0 {
		t.Fatal("no wall beads with NoWalls=false")
	}
	ts.Engine.Run(20)
	// Wall beads must not move.
	st := ts.Engine.State()
	for _, w := range ts.Walls {
		if st.Vel[w] != vec.Zero {
			t.Fatalf("wall bead %d moving", w)
		}
	}
}

// TestFrictionlessEngineConservesEnergy: with zero friction everywhere the
// engine's BAOAB step is velocity Verlet up to rounding, so total energy
// is conserved.
func TestFrictionlessEngineConservesEnergy(t *testing.T) {
	top := topology.New()
	p := topology.DefaultDNA(6)
	p.AngleK = 0
	_, pos, err := topology.BuildDNA(top, p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Top:      top,
		Init:     pos,
		Terms:    []forcefield.Term{forcefield.Bonds{Top: top}},
		DT:       0.001,
		GammaFor: func(int, vec.V) float64 { return 0 },
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	e0 := eng.TotalEnergy()
	eng.Run(5000)
	e1 := eng.TotalEnergy()
	if math.Abs(e1-e0) > 1e-3*math.Max(1, math.Abs(e0)) {
		t.Fatalf("frictionless drift: %v -> %v", e0, e1)
	}
}

func TestPoreFrictionIncreasesDrag(t *testing.T) {
	// Pulling the strand through the pore must cost more work with the
	// confined-water friction enhancement on.
	work := func(scale float64) float64 {
		spec := DefaultTranslocation(6)
		spec.Seed = 99
		spec.PoreFriction = scale
		ts, err := BuildTranslocation(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts.Engine.Run(500)
		ext := forcefield.NewExternalForces()
		_ = ext
		// Drag the lead bead down with a constant strong force and
		// measure how far it gets in fixed time: more friction, less
		// progress.
		ts.Engine.External.Set(ts.DNA[0], vec.V{Z: -20})
		ts.Engine.Run(4000)
		return ts.LeadZ()
	}
	zLow, zHigh := work(1), work(10)
	if zHigh <= zLow {
		t.Fatalf("pore friction should slow descent: scale1 z=%v scale10 z=%v", zLow, zHigh)
	}
}

// buildResumeEngine builds the small translocation engine used by
// the checkpoint-resume tests.
func buildResumeEngine(t *testing.T) *Engine {
	t.Helper()
	spec := DefaultTranslocation(6)
	spec.Seed = 11
	spec.DT = 0.02
	ts, err := BuildTranslocation(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ts.Engine
}

// TestCheckpointResumeBitExact pins the property the dist runtime's
// checkpoint-resume depends on: restoring a serialized checkpoint into a
// fresh engine and continuing produces bit-identical state to the
// uninterrupted run — thermostat RNG stream and neighbor-list rebuild
// schedule included.
func TestCheckpointResumeBitExact(t *testing.T) {
	const total, cut = 400, 150

	ref := buildResumeEngine(t)
	ref.Run(total)

	a := buildResumeEngine(t)
	a.Run(cut)
	ck := a.Checkpoint()
	if len(ck.RNG) == 0 {
		t.Fatal("checkpoint carries no RNG state")
	}
	if len(ck.NeighborRef) != a.Topology().N() {
		t.Fatalf("checkpoint carries %d neighbor-ref positions, want %d", len(ck.NeighborRef), a.Topology().N())
	}

	// Round-trip through the wire format, as dist does.
	var buf bytes.Buffer
	if err := trace.WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	ck2, err := trace.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Resume on a fresh engine whose own history is deliberately desynced.
	b := buildResumeEngine(t)
	b.Run(37)
	if err := b.Restore(ck2); err != nil {
		t.Fatal(err)
	}
	b.Run(total - cut)

	rs, bs := ref.State(), b.State()
	if rs.Step != bs.Step {
		t.Fatalf("step = %d, want %d", bs.Step, rs.Step)
	}
	for i := range rs.Pos {
		if rs.Pos[i] != bs.Pos[i] {
			t.Fatalf("atom %d position diverged after resume: %v != %v", i, bs.Pos[i], rs.Pos[i])
		}
		if rs.Vel[i] != bs.Vel[i] {
			t.Fatalf("atom %d velocity diverged after resume: %v != %v", i, bs.Vel[i], rs.Vel[i])
		}
	}
}

// TestCloneIndependentOfParentRNG pins that Clone still derives its stream
// from the given seed (not the parent's checkpointed stream).
func TestCloneRNGIndependent(t *testing.T) {
	a := buildResumeEngine(t)
	a.Run(20)
	c1, err := a.Clone(123)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := a.Clone(456)
	if err != nil {
		t.Fatal(err)
	}
	c1.Run(50)
	c2.Run(50)
	same := true
	for i := range c1.State().Pos {
		if c1.State().Pos[i] != c2.State().Pos[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clones with different seeds produced identical trajectories")
	}
}
