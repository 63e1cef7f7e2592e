package md

import (
	"sync/atomic"
	"testing"
	"time"

	"spice/internal/vec"
)

// walledPeriodicSpec is the substrate-eligible system the batch tests
// run on: explicit pore walls in a fully periodic box, sized so no
// periodic image comes within the cutoff of the real geometry.
func walledPeriodicSpec(n int, seed uint64) TranslocationSpec {
	spec := DefaultTranslocation(n)
	spec.NoWalls = false
	spec.Seed = seed
	spec.Workers = 1
	spec.Box = vec.V{X: 100, Y: 100, Z: 170}
	return spec
}

func buildReplicas(t *testing.T, n, replicas int, baseSeed uint64, spec func(int, uint64) TranslocationSpec) []*Engine {
	t.Helper()
	engines := make([]*Engine, replicas)
	for r := range engines {
		sys, err := BuildTranslocation(spec(n, baseSeed+uint64(r)))
		if err != nil {
			t.Fatal(err)
		}
		engines[r] = sys.Engine
	}
	return engines
}

func requireStatesEqual(t *testing.T, label string, r int, a, b *Engine) {
	t.Helper()
	sa, sb := a.State(), b.State()
	if sa.Step != sb.Step {
		t.Fatalf("%s replica %d: step %d vs %d", label, r, sa.Step, sb.Step)
	}
	for i := range sa.Pos {
		if sa.Pos[i] != sb.Pos[i] {
			t.Fatalf("%s replica %d: position of atom %d diverged at step %d: %v vs %v",
				label, r, i, sa.Step, sa.Pos[i], sb.Pos[i])
		}
		if sa.Vel[i] != sb.Vel[i] {
			t.Fatalf("%s replica %d: velocity of atom %d diverged at step %d: %v vs %v",
				label, r, i, sa.Step, sa.Vel[i], sb.Vel[i])
		}
	}
}

// TestBatchBitIdenticalTrajectories is the tentpole determinism proof:
// for 1, 8 and 32 replicas, stepping a batch must produce positions and
// velocities byte-identical to stepping identically seeded solo engines
// — including when the batch adopts engines mid-trajectory.
func TestBatchBitIdenticalTrajectories(t *testing.T) {
	for _, replicas := range []int{1, 8, 32} {
		solo := buildReplicas(t, 4, replicas, 100, walledPeriodicSpec)
		batched := buildReplicas(t, 4, replicas, 100, walledPeriodicSpec)

		// Adoption happens mid-trajectory: both sides step solo first.
		const preSteps, postSteps = 25, 120
		for _, e := range solo {
			e.Run(preSteps)
		}
		for _, e := range batched {
			e.Run(preSteps)
		}

		b, err := NewBatch(batched, BatchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !b.SubstrateShared() {
			t.Fatalf("replicas=%d: walled periodic system should share a substrate grid", replicas)
		}
		for chunk := 0; chunk < postSteps/40; chunk++ {
			b.StepN(40)
			for _, e := range solo {
				e.Run(40)
			}
			for r := range solo {
				requireStatesEqual(t, "mid", r, solo[r], b.Engine(r))
			}
		}
		b.Close()
	}
}

// TestBatchOpenBoxFallback: an open-boundary system is not
// substrate-eligible, but batching must still work — and still match
// per-engine stepping exactly.
func TestBatchOpenBoxFallback(t *testing.T) {
	openSpec := func(n int, seed uint64) TranslocationSpec {
		spec := DefaultTranslocation(n)
		spec.NoWalls = false
		spec.Seed = seed
		spec.Workers = 1
		return spec
	}
	solo := buildReplicas(t, 4, 4, 300, openSpec)
	batched := buildReplicas(t, 4, 4, 300, openSpec)
	b, err := NewBatch(batched, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.SubstrateShared() {
		t.Fatal("open box must not be substrate-eligible")
	}
	b.StepN(80)
	for _, e := range solo {
		e.Run(80)
	}
	for r := range solo {
		requireStatesEqual(t, "open", r, solo[r], b.Engine(r))
	}
}

// TestCloneIntoBatchRestore covers the checkpoint path on a batch
// member: a mid-run checkpoint from a solo engine is restored onto a
// cloned engine after that clone was adopted into a batch. Continuing
// the batch member must reproduce the solo continuation bit-exactly.
func TestCloneIntoBatchRestore(t *testing.T) {
	sys, err := BuildTranslocation(walledPeriodicSpec(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	orig := sys.Engine
	orig.Run(60)
	ck := orig.Checkpoint()

	clone, err := orig.Clone(991)
	if err != nil {
		t.Fatal(err)
	}
	other, err := BuildTranslocation(walledPeriodicSpec(4, 992))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch([]*Engine{clone, other.Engine}, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.SubstrateShared() {
		t.Fatal("expected shared substrate")
	}

	// Exact-resume restore (checkpoint carries RNG streams) on the batch
	// member, then step the batch; the member must shadow the original.
	if err := b.Engine(0).Restore(ck); err != nil {
		t.Fatal(err)
	}
	b.StepN(90)
	orig.Run(90)
	requireStatesEqual(t, "restore", 0, orig, b.Engine(0))
}

// TestBatchStepZeroAllocs pins the 0 allocs/op acceptance criterion for
// steady-state ensemble stepping.
func TestBatchStepZeroAllocs(t *testing.T) {
	engines := buildReplicas(t, 4, 4, 500, walledPeriodicSpec)
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.StepN(30) // warm up: neighbor buffers, wrap scratch, force chunks
	allocs := testing.AllocsPerRun(50, func() { b.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state batch step allocates %.1f/op", allocs)
	}
}

// TestBatchRetireReplica: retired replicas stop advancing, the rest
// keep stepping.
func TestBatchRetireReplica(t *testing.T) {
	engines := buildReplicas(t, 4, 3, 700, walledPeriodicSpec)
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.StepN(5)
	frozen := b.Engine(1).State().Step
	b.SetActive(1, false)
	if b.NumActive() != 2 {
		t.Fatalf("NumActive = %d, want 2", b.NumActive())
	}
	b.StepN(7)
	if got := b.Engine(1).State().Step; got != frozen {
		t.Fatalf("retired replica advanced from %d to %d", frozen, got)
	}
	if got := b.Engine(0).State().Step; got != frozen+7 {
		t.Fatalf("active replica at step %d, want %d", got, frozen+7)
	}
}

// TestBatchObservers: per-replica step and neighbor observers fire with
// the right replica indices and reasonable counts.
func TestBatchObservers(t *testing.T) {
	engines := buildReplicas(t, 4, 3, 900, walledPeriodicSpec)
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	stepHits := make([]int64, b.Len())
	rebuildHits := make([]int64, b.Len())
	var pairsSeen atomic.Int64 // shared by every replica's step worker
	b.SetStepObserver(10, func(r int, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for replica %d", r)
		}
		stepHits[r]++
	})
	b.SetNeighborObserver(func(r, pairs int) {
		rebuildHits[r]++
		pairsSeen.Add(int64(pairs))
	})

	b.StepN(40)
	for r := range stepHits {
		if stepHits[r] != 4 {
			t.Fatalf("replica %d: %d sampled steps, want 4", r, stepHits[r])
		}
		if rebuildHits[r] == 0 {
			t.Fatalf("replica %d: no rebuild observations", r)
		}
	}
	if pairsSeen.Load() == 0 {
		t.Fatal("neighbor observer never saw pairs")
	}

	b.SetStepObserver(0, nil)
	b.SetNeighborObserver(nil)
	before := append([]int64(nil), stepHits...)
	b.StepN(20)
	for r := range stepHits {
		if stepHits[r] != before[r] {
			t.Fatalf("replica %d: observer fired after removal", r)
		}
	}
}

// TestBatchRejectsDoubleAdoption: an engine cannot join two batches.
func TestBatchRejectsDoubleAdoption(t *testing.T) {
	engines := buildReplicas(t, 4, 2, 1100, walledPeriodicSpec)
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := NewBatch([]*Engine{engines[0]}, BatchConfig{}); err == nil {
		t.Fatal("double adoption accepted")
	}
}

// TestSubstrateShare: independently built engines of the same system
// share one grid through the cache; a different system gets its own
// entry; an ineligible system is a cached miss.
func TestSubstrateShare(t *testing.T) {
	var share SubstrateShare
	a, err := BuildTranslocation(walledPeriodicSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	bsys, err := BuildTranslocation(walledPeriodicSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !share.Attach("sysA", a.Engine) {
		t.Fatal("first attach failed")
	}
	if !share.Attach("sysA", bsys.Engine) {
		t.Fatal("second attach failed")
	}
	if a.Engine.nlist.Static() != bsys.Engine.nlist.Static() {
		t.Fatal("engines do not share one grid")
	}

	open := DefaultTranslocation(4)
	open.Seed = 3
	osys, err := BuildTranslocation(open)
	if err != nil {
		t.Fatal(err)
	}
	if share.Attach("sysOpen", osys.Engine) {
		t.Fatal("open system attached")
	}
	if share.Attach("sysOpen", osys.Engine) {
		t.Fatal("negative cache did not hold")
	}

	// Trajectory with a shared substrate still matches a plain engine.
	ref, err := BuildTranslocation(walledPeriodicSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	bsys.Engine.Run(60)
	ref.Engine.Run(60)
	requireStatesEqual(t, "share", 0, ref.Engine, bsys.Engine)
}
