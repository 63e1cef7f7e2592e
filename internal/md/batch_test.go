package md

import "testing"

// walledSpec is the system most batch tests run on: explicit pore walls,
// fixed atoms appended after the strand.
func walledSpec(n int, seed uint64) TranslocationSpec {
	spec := DefaultTranslocation(n)
	spec.NoWalls = false
	spec.Seed = seed
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
		solo := buildReplicas(t, 4, replicas, 100, walledSpec)
		batched := buildReplicas(t, 4, replicas, 100, walledSpec)

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

// TestCloneIntoBatchRestore covers the checkpoint path on a batch
// member: a mid-run checkpoint from a solo engine is restored onto a
// cloned engine after that clone was adopted into a batch. Continuing
// the batch member must reproduce the solo continuation bit-exactly.
func TestCloneIntoBatchRestore(t *testing.T) {
	sys, err := BuildTranslocation(walledSpec(4, 7))
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
	other, err := BuildTranslocation(walledSpec(4, 992))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch([]*Engine{clone, other.Engine}, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

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
	engines := buildReplicas(t, 4, 4, 500, walledSpec)
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.StepN(30) // warm up: neighbor buffers, wrap scratch
	allocs := testing.AllocsPerRun(50, func() { b.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state batch step allocates %.1f/op", allocs)
	}
}

// TestBatchRejectsDoubleAdoption: an engine cannot join two batches.
func TestBatchRejectsDoubleAdoption(t *testing.T) {
	engines := buildReplicas(t, 4, 2, 1100, walledSpec)
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := NewBatch([]*Engine{engines[0]}, BatchConfig{}); err == nil {
		t.Fatal("double adoption accepted")
	}
}
