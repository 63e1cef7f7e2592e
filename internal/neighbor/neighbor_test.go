package neighbor

import (
	"sort"
	"testing"

	"spice/internal/vec"
	"spice/internal/xrand"
)

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].I != ps[j].I {
			return ps[i].I < ps[j].I
		}
		return ps[i].J < ps[j].J
	})
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	sortPairs(a)
	sortPairs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

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
		l := NewList(5, 0, vec.Zero)
		l.ForceRebuild(pos)
		want := BruteForcePairs(pos, 5, vec.Zero, nil)
		got := append([]Pair(nil), l.Pairs...)
		if !pairsEqual(got, want) {
			t.Fatalf("n=%d: cell list %d pairs, brute force %d", n, len(got), len(want))
		}
	}
}

func TestCellListMatchesBruteForcePeriodic(t *testing.T) {
	rng := xrand.New(2)
	box := vec.V{X: 30, Y: 30, Z: 30}
	for _, n := range []int{10, 100, 400} {
		pos := randomPositions(rng, n, 30)
		l := NewList(4, 0, box)
		l.ForceRebuild(pos)
		want := BruteForcePairs(pos, 4, box, nil)
		got := append([]Pair(nil), l.Pairs...)
		if !pairsEqual(got, want) {
			t.Fatalf("n=%d periodic: cell list %d pairs, brute force %d", n, len(got), len(want))
		}
	}
}

func TestCellListPartialPeriodic(t *testing.T) {
	rng := xrand.New(3)
	box := vec.V{X: 25, Y: 25, Z: 0} // slab geometry: open in z
	pos := randomPositions(rng, 300, 25)
	for i := range pos {
		pos[i].Z = rng.NormFloat64() * 20
	}
	l := NewList(4, 0, box)
	l.ForceRebuild(pos)
	want := BruteForcePairs(pos, 4, box, nil)
	got := append([]Pair(nil), l.Pairs...)
	if !pairsEqual(got, want) {
		t.Fatalf("slab: cell list %d pairs, brute force %d", len(got), len(want))
	}
}

func TestSkinIncludesNearMisses(t *testing.T) {
	// With skin, pairs slightly beyond the cutoff must be listed.
	pos := []vec.V{{}, {X: 5.5}}
	l := NewList(5, 1, vec.Zero)
	l.ForceRebuild(pos)
	if len(l.Pairs) != 1 {
		t.Fatalf("skin miss: %d pairs", len(l.Pairs))
	}
	// Without skin it must not be.
	l2 := NewList(5, 0, vec.Zero)
	l2.ForceRebuild(pos)
	if len(l2.Pairs) != 0 {
		t.Fatalf("no-skin: %d pairs", len(l2.Pairs))
	}
}

func TestUpdateRebuildPolicy(t *testing.T) {
	rng := xrand.New(4)
	pos := randomPositions(rng, 100, 20)
	l := NewList(4, 2, vec.Zero)
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
	l := NewList(5, 0, vec.Zero)
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
	// brute-force reference on a chain-like exclusion pattern, above and
	// below the grid threshold.
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
		l := NewList(5, 0.5, vec.Zero)
		l.SetExclusions(excl)
		l.ForceRebuild(pos)
		want := BruteForcePairs(pos, 5.5, vec.Zero, isExcl)
		got := append([]Pair(nil), l.Pairs...)
		if !pairsEqual(got, want) {
			t.Fatalf("n=%d: baked %d pairs, closure reference %d", n, len(got), len(want))
		}
	}
}

func TestInactivePairsSkipped(t *testing.T) {
	pos := []vec.V{{}, {X: 1}, {X: 2}}
	l := NewList(5, 0, vec.Zero)
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
		l := NewList(5, 1, vec.Zero)
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
	box := vec.V{X: 35, Y: 35, Z: 35}
	pos := randomPositions(rng, 800, 35)
	l := NewList(4, 1, box)
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
	l := NewList(4, 2, vec.Zero)
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
	l := NewList(5, 1, vec.Zero)
	l.ForceRebuild(pos)
	for _, p := range l.Pairs {
		if p.I >= p.J {
			t.Fatalf("unordered pair %v", p)
		}
	}
}

func TestNoDuplicatePairs(t *testing.T) {
	rng := xrand.New(6)
	box := vec.V{X: 12, Y: 12, Z: 12} // small box stresses cell wrapping
	pos := randomPositions(rng, 200, 12)
	l := NewList(4, 0.5, box)
	l.ForceRebuild(pos)
	seen := make(map[Pair]bool)
	for _, p := range l.Pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestSmallBoxPeriodicCorrectness(t *testing.T) {
	// Box barely larger than cutoff: n=1..2 cells per axis, the wrap
	// suppression path.
	rng := xrand.New(7)
	box := vec.V{X: 9, Y: 9, Z: 9}
	pos := randomPositions(rng, 150, 9)
	l := NewList(4, 0, box)
	l.ForceRebuild(pos)
	want := BruteForcePairs(pos, 4, box, nil)
	got := append([]Pair(nil), l.Pairs...)
	if !pairsEqual(got, want) {
		t.Fatalf("small box: %d vs %d pairs", len(got), len(want))
	}
}

func TestEmptyAndSingle(t *testing.T) {
	l := NewList(5, 1, vec.Zero)
	l.ForceRebuild(nil)
	if len(l.Pairs) != 0 {
		t.Fatal("pairs from empty input")
	}
	l.ForceRebuild([]vec.V{{X: 1}})
	if len(l.Pairs) != 0 {
		t.Fatal("pairs from single atom")
	}
}

func BenchmarkCellList1000(b *testing.B) {
	rng := xrand.New(8)
	pos := randomPositions(rng, 1000, 50)
	l := NewList(5, 1, vec.Zero)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ForceRebuild(pos)
	}
}

func BenchmarkBruteForce1000(b *testing.B) {
	rng := xrand.New(8)
	pos := randomPositions(rng, 1000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForcePairs(pos, 5, vec.Zero, nil)
	}
}
