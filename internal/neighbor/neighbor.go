// Package neighbor builds the Verlet pair list the nonbonded force loop
// walks: every pair within the cutoff plus a skin margin, drawn by an
// i-major O(N²) scan over open (non-periodic) boundaries. The list is
// reused across steps until any particle has moved more than half the
// skin since the last rebuild, so the scan runs once per rebuild, not per
// step — and the systems pulled here hold tens of mobile beads.
//
// The pairs come out i-major with j ascending within a row, so the force
// loop walks positions in cache order and the summation order — hence a
// trajectory — depends only on positions at the rebuild. Exclusions are
// baked in at construction as per-atom sorted index lists (no closure, no
// map lookup on the candidate-pair path), and the position and pair
// buffers are retained, so after warm-up a rebuild allocates nothing.
package neighbor

import "spice/internal/vec"

// Pair is an unordered particle pair (I < J).
type Pair struct{ I, J int32 }

// Stats summarizes rebuild behaviour for skin tuning and regression
// tracking: how often the list rebuilds and how many pairs each rebuild
// emits.
type Stats struct {
	Rebuilds    int     // total rebuilds since creation
	Updates     int     // Update() calls since creation
	Pairs       int     // pairs in the current list
	AvgPairs    float64 // mean pairs per rebuild
	AvgInterval float64 // mean Update() calls between rebuilds
}

// List is a reusable Verlet neighbor list.
type List struct {
	Cutoff float64 // interaction cutoff, Å
	Skin   float64 // extra margin, Å

	// OnRebuild, when set, is invoked with the new pair count after
	// every rebuild, on the goroutine driving Update/ForceRebuild. The
	// call itself allocates nothing, so observers that only touch atomic
	// instruments keep the force loop allocation-free.
	OnRebuild func(pairs int)

	Pairs []Pair

	excl     [][]int32 // per-atom sorted exclusion lists; nil = none
	inactive []bool    // pairs with both atoms inactive are skipped

	ref []vec.V // positions at last rebuild

	nRebuilds   int
	updates     int
	lastRebuild int // updates count when the list was last rebuilt
	intervalSum int
	pairsSum    int64
}

// NewList returns a list with the given cutoff and skin.
func NewList(cutoff, skin float64) *List {
	return &List{Cutoff: cutoff, Skin: skin}
}

// SetExclusions bakes per-atom sorted exclusion lists (as produced by
// topology.ExclusionLists) into the list. The slice is retained, not
// copied; it must stay valid and sorted for the lifetime of the list.
func (l *List) SetExclusions(lists [][]int32) { l.excl = lists }

// SetInactive marks atoms whose mutual pairs never matter (e.g. fixed
// wall beads): a candidate pair is skipped when both atoms are inactive.
// The slice is retained, not copied.
func (l *List) SetInactive(inactive []bool) { l.inactive = inactive }

// Rebuilds returns how many times the list has been rebuilt (diagnostics).
func (l *List) Rebuilds() int { return l.nRebuilds }

// Statistics returns rebuild-cadence and pair-count metrics.
func (l *List) Statistics() Stats {
	s := Stats{
		Rebuilds: l.nRebuilds,
		Updates:  l.updates,
		Pairs:    len(l.Pairs),
	}
	if l.nRebuilds > 0 {
		s.AvgPairs = float64(l.pairsSum) / float64(l.nRebuilds)
		s.AvgInterval = float64(l.intervalSum) / float64(l.nRebuilds)
	}
	return s
}

// excluded reports whether pair (i, j) is baked out of the list. The
// per-atom lists are short (bonded 1-2/1-3 partners), so a bounded linear
// scan over the sorted list beats binary search and never allocates.
func (l *List) excluded(i, j int32) bool {
	if l.inactive != nil && l.inactive[i] && l.inactive[j] {
		return true
	}
	if l.excl == nil {
		return false
	}
	for _, k := range l.excl[i] {
		if k >= j {
			return k == j
		}
	}
	return false
}

// Update rebuilds the pair list if any particle moved more than skin/2
// since the last rebuild (or if the list has never been built). It returns
// true when a rebuild happened.
func (l *List) Update(pos []vec.V) bool {
	l.updates++
	if l.ref != nil && len(l.ref) == len(pos) {
		lim2 := (l.Skin / 2) * (l.Skin / 2)
		moved := false
		for i := range pos {
			if d := pos[i].Sub(l.ref[i]); d.Norm2() > lim2 {
				moved = true
				break
			}
		}
		if !moved {
			return false
		}
	}
	l.build(pos)
	return true
}

// ForceRebuild unconditionally rebuilds the list.
func (l *List) ForceRebuild(pos []vec.V) { l.build(pos) }

// Ref returns a copy of the positions the current pair list was built from
// (nil before the first build). Checkpoints carry these so a restored
// simulation rebuilds the exact pair list — same set, same order — that the
// uninterrupted run was using, keeping resumed trajectories bit-identical
// despite the order-sensitivity of floating-point force accumulation.
func (l *List) Ref() []vec.V {
	if l.ref == nil {
		return nil
	}
	return append([]vec.V(nil), l.ref...)
}

func (l *List) build(pos []vec.V) {
	l.nRebuilds++
	l.intervalSum += l.updates - l.lastRebuild
	l.lastRebuild = l.updates

	n := len(pos)
	if cap(l.ref) < n {
		l.ref = make([]vec.V, n)
	}
	l.ref = l.ref[:n]
	copy(l.ref, pos)
	l.Pairs = l.Pairs[:0]

	// Rows past the last active atom hold only inactive-inactive pairs.
	last := n - 1
	for l.inactive != nil && last >= 0 && l.inactive[last] {
		last--
	}
	r := l.Cutoff + l.Skin
	r2 := r * r
	for i := 0; i <= last; i++ {
		for j := i + 1; j < n; j++ {
			if l.excluded(int32(i), int32(j)) {
				continue
			}
			if d := pos[i].Sub(pos[j]); d.Norm2() <= r2 {
				l.Pairs = append(l.Pairs, Pair{int32(i), int32(j)})
			}
		}
	}
	l.pairsSum += int64(len(l.Pairs))
	if l.OnRebuild != nil {
		l.OnRebuild(len(l.Pairs))
	}
}

// BruteForcePairs returns all in-range non-excluded pairs by O(N²) scan.
// It is the reference implementation List is tested against.
func BruteForcePairs(pos []vec.V, cutoff float64, exclude func(i, j int) bool) []Pair {
	var out []Pair
	c2 := cutoff * cutoff
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if exclude != nil && exclude(i, j) {
				continue
			}
			if d := pos[i].Sub(pos[j]); d.Norm2() <= c2 {
				out = append(out, Pair{int32(i), int32(j)})
			}
		}
	}
	return out
}
