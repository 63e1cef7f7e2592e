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
// — including when the engines join the batch mid-trajectory.
func TestBatchBitIdenticalTrajectories(t *testing.T) {
	for _, replicas := range []int{1, 8, 32} {
		solo := buildReplicas(t, 4, replicas, 100, walledSpec)
		batched := buildReplicas(t, 4, replicas, 100, walledSpec)

		// The batch forms mid-trajectory: both sides step solo first.
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
				requireStatesEqual(t, "mid", r, solo[r], batched[r])
			}
		}
		b.Close()
	}
}

// TestCloneIntoBatchRestore covers the checkpoint path on a batch
// member: a mid-run checkpoint from a solo engine is restored onto a
// cloned engine after that clone joined a batch. Continuing the batch
// member must reproduce the solo continuation bit-exactly.
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
	if err := clone.Restore(ck); err != nil {
		t.Fatal(err)
	}
	b.StepN(90)
	orig.Run(90)
	requireStatesEqual(t, "restore", 0, orig, clone)
}

// TestBatchStepZeroAllocs: StepN's allocations (its goroutines) do not
// grow with n, so a replica step allocates nothing.
func TestBatchStepZeroAllocs(t *testing.T) {
	engines := buildReplicas(t, 4, 4, 500, walledSpec)
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.StepN(30) // warm up: neighbor buffers, wrap scratch
	const n = 100
	one := testing.AllocsPerRun(20, func() { b.StepN(1) })
	many := testing.AllocsPerRun(20, func() { b.StepN(n) })
	if many > one+0.5 {
		t.Fatalf("StepN(%d) allocates %.1f/op against %.1f for StepN(1)", n, many, one)
	}
}

// TestNewBatchRejects: an empty batch, a nil engine, a mismatched atom
// count and one engine listed twice are refused.
func TestNewBatchRejects(t *testing.T) {
	engines := buildReplicas(t, 4, 2, 1100, walledSpec)
	bigger, err := BuildTranslocation(walledSpec(6, 1102))
	if err != nil {
		t.Fatal(err)
	}
	for name, es := range map[string][]*Engine{
		"empty":      nil,
		"nil engine": {nil, engines[0]},
		"atom count": {engines[0], bigger.Engine},
		"twice":      {engines[0], engines[1], engines[0]},
	} {
		if _, err := NewBatch(es, BatchConfig{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	b, err := NewBatch(engines, BatchConfig{})
	if err != nil {
		t.Fatalf("two distinct engines: %v", err)
	}
	b.Close()
}
