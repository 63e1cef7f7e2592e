package neighbor

import (
	"slices"
	"testing"

	"spice/internal/vec"
	"spice/internal/xrand"
)

func randomPositions(rng *xrand.Source, n int, span float64) []vec.V {
	pos := make([]vec.V, n)
	for i := range pos {
		pos[i] = vec.V{X: span * rng.Float64(), Y: span * rng.Float64(), Z: span * rng.Float64()}
	}
	return pos
}

func TestCellListMatchesBruteForceOpen(t *testing.T) {
	rng := xrand.New(1)
	for _, n := range []int{3, 30, 64, 65, 200, 500} {
		pos := randomPositions(rng, n, 40)
		l := NewList(5, 0)
		l.ForceRebuild(pos)
		if want := BruteForcePairs(pos, 5, nil); !slices.Equal(l.Pairs, want) {
			t.Fatalf("n=%d: list %d pairs, brute force %d (or a different order)", n, len(l.Pairs), len(want))
		}
	}
}

// TestPairsMatchBruteForceInOrder pins the order contract pulls rely on:
// the force loop sums pairs in list order, so a trajectory, a checkpoint
// and a resume from List.Ref are reproducible only while the list is
// exactly the i-major, j-ascending reference — order included, above 64
// atoms too — with inactive (fixed) atoms trailing the mobile ones, as
// walls are appended after the strand, and interleaved with them.
func TestPairsMatchBruteForceInOrder(t *testing.T) {
	rng := xrand.New(16)
	const n = 300
	for _, tc := range []struct {
		name     string
		inactive func(i int) bool
	}{
		{"suffix", func(i int) bool { return i >= 40 }},
		{"interleaved", func(i int) bool { return i%3 != 0 }},
	} {
		pos := randomPositions(rng, n, 30)
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = tc.inactive(i)
		}
		l := NewList(5, 1)
		l.SetInactive(mask)
		l.ForceRebuild(pos)
		want := BruteForcePairs(pos, 6, func(i, j int) bool { return mask[i] && mask[j] })
		if len(l.Pairs) != len(want) {
			t.Fatalf("%s: %d pairs, reference %d", tc.name, len(l.Pairs), len(want))
		}
		for k := range want {
			if l.Pairs[k] != want[k] {
				t.Fatalf("%s: pair %d is %v, reference %v", tc.name, k, l.Pairs[k], want[k])
			}
		}
	}
}

func TestSkinIncludesNearMisses(t *testing.T) {
	// With skin, pairs slightly beyond the cutoff must be listed.
	pos := []vec.V{{}, {X: 5.5}}
	l := NewList(5, 1)
	l.ForceRebuild(pos)
	if len(l.Pairs) != 1 {
		t.Fatalf("skin miss: %d pairs", len(l.Pairs))
	}
	// Without skin it must not be.
	l2 := NewList(5, 0)
	l2.ForceRebuild(pos)
	if len(l2.Pairs) != 0 {
		t.Fatalf("no-skin: %d pairs", len(l2.Pairs))
	}
}

func TestUpdateRebuildPolicy(t *testing.T) {
	rng := xrand.New(4)
	pos := randomPositions(rng, 100, 20)
	l := NewList(4, 2)
	if !l.Update(pos) {
		t.Fatal("first Update must rebuild")
	}
	n := l.Rebuilds()
	// Tiny move: no rebuild.
	pos[0].X += 0.1
	if l.Update(pos) || l.Rebuilds() != n {
		t.Fatal("tiny move triggered rebuild")
	}
	// Move beyond skin/2: rebuild.
	pos[0].X += 2
	if !l.Update(pos) || l.Rebuilds() != n+1 {
		t.Fatal("large move did not trigger rebuild")
	}
}

func TestExclusions(t *testing.T) {
	pos := []vec.V{{}, {X: 1}, {X: 2}}
	l := NewList(5, 0)
	l.SetExclusions([][]int32{{1}, {0}, nil})
	l.ForceRebuild(pos)
	for _, p := range l.Pairs {
		if p.I == 0 && p.J == 1 {
			t.Fatal("excluded pair listed")
		}
	}
	if len(l.Pairs) != 2 { // (0,2) and (1,2)
		t.Fatalf("pairs = %v", l.Pairs)
	}
}

func TestBakedExclusionsMatchClosureReference(t *testing.T) {
	// The baked sorted-list check must agree with the closure-driven
	// brute-force reference on a chain-like exclusion pattern.
	rng := xrand.New(11)
	for _, n := range []int{40, 300} {
		pos := randomPositions(rng, n, 25)
		excl := make([][]int32, n)
		isExcl := func(i, j int) bool { d := i - j; return d == 1 || d == -1 || d == 2 || d == -2 }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && isExcl(i, j) {
					excl[i] = append(excl[i], int32(j))
				}
			}
		}
		l := NewList(5, 0.5)
		l.SetExclusions(excl)
		l.ForceRebuild(pos)
		if want := BruteForcePairs(pos, 5.5, isExcl); !slices.Equal(l.Pairs, want) {
			t.Fatalf("n=%d: baked %d pairs, closure reference %d (or a different order)", n, len(l.Pairs), len(want))
		}
	}
}

func TestInactivePairsSkipped(t *testing.T) {
	pos := []vec.V{{}, {X: 1}, {X: 2}}
	l := NewList(5, 0)
	l.SetInactive([]bool{true, true, false})
	l.ForceRebuild(pos)
	if len(l.Pairs) != 2 { // (0,1) dropped; (0,2), (1,2) kept
		t.Fatalf("pairs = %v", l.Pairs)
	}
	for _, p := range l.Pairs {
		if p.I == 0 && p.J == 1 {
			t.Fatal("inactive-inactive pair listed")
		}
	}
}

func TestPairsSortedByI(t *testing.T) {
	rng := xrand.New(12)
	for _, n := range []int{50, 400} {
		pos := randomPositions(rng, n, 30)
		l := NewList(5, 1)
		l.ForceRebuild(pos)
		for k := 1; k < len(l.Pairs); k++ {
			if l.Pairs[k].I < l.Pairs[k-1].I {
				t.Fatalf("n=%d: pairs not sorted by I at %d: %v after %v", n, k, l.Pairs[k], l.Pairs[k-1])
			}
		}
	}
}

func TestRebuildAllocFreeInSteadyState(t *testing.T) {
	rng := xrand.New(14)
	pos := randomPositions(rng, 800, 35)
	l := NewList(4, 1)
	l.ForceRebuild(pos) // warm-up sizes every retained buffer
	l.ForceRebuild(pos)
	allocs := testing.AllocsPerRun(10, func() { l.ForceRebuild(pos) })
	if allocs > 0 {
		t.Fatalf("steady-state rebuild allocates %.1f times", allocs)
	}
}

func TestStatistics(t *testing.T) {
	rng := xrand.New(15)
	pos := randomPositions(rng, 100, 20)
	l := NewList(4, 2)
	for i := 0; i < 5; i++ {
		l.Update(pos) // only the first call rebuilds
	}
	st := l.Statistics()
	if st.Rebuilds != 1 || st.Updates != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Pairs != len(l.Pairs) || st.AvgPairs != float64(len(l.Pairs)) {
		t.Fatalf("pair stats = %+v, list has %d", st, len(l.Pairs))
	}
	// Force a second rebuild: interval bookkeeping must cover both.
	pos[0].X += 3
	if !l.Update(pos) {
		t.Fatal("large move did not rebuild")
	}
	st = l.Statistics()
	if st.Rebuilds != 2 {
		t.Fatalf("stats after move = %+v", st)
	}
	if got := st.AvgInterval; got != 3 { // rebuilds at update 1 and 6 -> (1+5)/2
		t.Fatalf("avg interval = %v, want 3", got)
	}
}

func TestPairOrderingInvariant(t *testing.T) {
	rng := xrand.New(5)
	pos := randomPositions(rng, 300, 30)
	l := NewList(5, 1)
	l.ForceRebuild(pos)
	for _, p := range l.Pairs {
		if p.I >= p.J {
			t.Fatalf("unordered pair %v", p)
		}
	}
}

func TestNoDuplicatePairs(t *testing.T) {
	rng := xrand.New(6)
	pos := randomPositions(rng, 200, 12) // dense: most pairs in range
	l := NewList(4, 0.5)
	l.ForceRebuild(pos)
	seen := make(map[Pair]bool)
	for _, p := range l.Pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestEmptyAndSingle(t *testing.T) {
	l := NewList(5, 1)
	l.ForceRebuild(nil)
	if len(l.Pairs) != 0 {
		t.Fatal("pairs from empty input")
	}
	l.ForceRebuild([]vec.V{{X: 1}})
	if len(l.Pairs) != 0 {
		t.Fatal("pairs from single atom")
	}
}
