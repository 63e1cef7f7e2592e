// Package neighbor builds the pair lists that make nonbonded force
// evaluation O(N) instead of O(N²): a uniform cell (linked-cell) grid over
// the bounding box, from which a Verlet list with a skin margin is drawn.
// The list is reused across steps until any particle has moved more than
// half the skin since the last rebuild.
//
// The list is built for steady-state reuse: the linked-cell arrays, the
// wrapped-position scratch and the pair buffers are all retained across
// rebuilds, so after warm-up a rebuild allocates nothing. Exclusions are
// baked in at construction as per-atom sorted index lists (no closure, no
// map lookup on the candidate-pair path), and the emitted pairs are
// counting-sorted by their lower index so the force loop walks positions
// in cache order.
//
// The box may be non-periodic (zero box vector components); the grid then
// adapts to the instantaneous bounding box of the particles.
package neighbor

import (
	"math"

	"spice/internal/vec"
)

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
	Box    vec.V   // periodic box (zero components = open)

	// OnRebuild, when set, is invoked with the new pair count after
	// every rebuild, on the goroutine driving Update/ForceRebuild. The
	// call itself allocates nothing, so observers that only touch atomic
	// instruments keep the force loop allocation-free.
	OnRebuild func(pairs int)

	Pairs []Pair

	excl     [][]int32 // per-atom sorted exclusion lists; nil = none
	inactive []bool    // pairs with both atoms inactive are skipped

	ref     []vec.V // positions at last rebuild
	wrapped []vec.V // positions wrapped into the primary cell (scratch)
	head    []int32 // linked-cell heads, one per cell
	next    []int32 // linked-cell chains, one per atom
	offs    []int32 // counting-sort offsets, one per atom
	sorted  []Pair  // counting-sort double buffer

	nRebuilds   int
	updates     int
	lastRebuild int // updates count when the list was last rebuilt
	intervalSum int
	pairsSum    int64
}

// NewList returns a list with the given cutoff and skin.
func NewList(cutoff, skin float64, box vec.V) *List {
	return &List{Cutoff: cutoff, Skin: skin, Box: box}
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
			d := vec.MinImage(pos[i].Sub(l.ref[i]), l.Box)
			if d.Norm2() > lim2 {
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
		l.wrapped = make([]vec.V, n)
	}
	l.ref = l.ref[:n]
	l.wrapped = l.wrapped[:n]
	copy(l.ref, pos)
	// Wrap once into the scratch slice; every later distance and cell
	// computation works on wrapped coordinates (minimum-image distances
	// are invariant under wrapping).
	for i, p := range pos {
		l.wrapped[i] = vec.Wrap(p, l.Box)
	}
	l.Pairs = l.Pairs[:0]
	defer func() {
		l.pairsSum += int64(len(l.Pairs))
		if l.OnRebuild != nil {
			l.OnRebuild(len(l.Pairs))
		}
	}()

	if n < 2 {
		return
	}
	r := l.Cutoff + l.Skin
	r2 := r * r

	// For small systems brute force beats grid overhead; the i-major
	// double loop already emits pairs sorted by I.
	if n <= 64 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.excluded(int32(i), int32(j)) {
					continue
				}
				d := vec.MinImageWrapped(l.wrapped[i].Sub(l.wrapped[j]), l.Box)
				if d.Norm2() <= r2 {
					l.Pairs = append(l.Pairs, Pair{int32(i), int32(j)})
				}
			}
		}
		return
	}

	// Grid bounds: the periodic box where defined, else the bounding box.
	lo, hi := bounds(l.wrapped, l.Box)
	ext := hi.Sub(lo)
	nx := gridDim(ext.X, r)
	ny := gridDim(ext.Y, r)
	nz := gridDim(ext.Z, r)
	ncell := nx * ny * nz
	g := gridDesc{lo: lo, ext: ext, nx: nx, ny: ny, nz: nz,
		periodicX: l.Box.X > 0, periodicY: l.Box.Y > 0, periodicZ: l.Box.Z > 0}

	// Linked-cell head/next arrays, retained across rebuilds.
	if cap(l.head) < ncell {
		l.head = make([]int32, ncell)
	}
	l.head = l.head[:ncell]
	for i := range l.head {
		l.head[i] = -1
	}
	if cap(l.next) < n {
		l.next = make([]int32, n)
	}
	l.next = l.next[:n]
	for i := 0; i < n; i++ {
		c := g.cellOf(l.wrapped[i])
		l.next[i] = l.head[c]
		l.head[c] = int32(i)
	}

	l.scanGrid(g, r2)
	l.sortByI(n)
}

// gridDesc carries the cell-grid geometry through the scan.
type gridDesc struct {
	lo, ext                         vec.V
	nx, ny, nz                      int
	periodicX, periodicY, periodicZ bool
}

func (g *gridDesc) cellOf(p vec.V) int {
	cx := clampCell(int(math.Floor((p.X-g.lo.X)/g.ext.X*float64(g.nx))), g.nx)
	cy := clampCell(int(math.Floor((p.Y-g.lo.Y)/g.ext.Y*float64(g.ny))), g.ny)
	cz := clampCell(int(math.Floor((p.Z-g.lo.Z)/g.ext.Z*float64(g.nz))), g.nz)
	return (cz*g.ny+cy)*g.nx + cx
}

// scanGrid scans every cell against its half-neighborhood, appending
// in-range pairs to l.Pairs. Each cell pair is visited exactly once
// because a cell only scans neighbours nc >= c.
func (l *List) scanGrid(g gridDesc, r2 float64) {
	out := l.Pairs
	nxy := g.nx * g.ny
	for c := range l.head {
		if l.head[c] < 0 {
			continue
		}
		cz := c / nxy
		cy := (c - cz*nxy) / g.nx
		cx := c - cz*nxy - cy*g.nx
		for dz := -1; dz <= 1; dz++ {
			ncz, okz := wrapCell(cz+dz, g.nz, g.periodicZ)
			if !okz {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				ncy, oky := wrapCell(cy+dy, g.ny, g.periodicY)
				if !oky {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					ncx, okx := wrapCell(cx+dx, g.nx, g.periodicX)
					if !okx {
						continue
					}
					nc := (ncz*g.ny+ncy)*g.nx + ncx
					if nc < c {
						continue // visit each cell pair once
					}
					out = l.scanCells(c, nc, r2, out)
				}
			}
		}
	}
	l.Pairs = out
}

// scanCells appends in-range pairs between cells a and b (a == b allowed).
func (l *List) scanCells(a, b int, r2 float64, out []Pair) []Pair {
	head, next := l.head, l.next
	pos := l.wrapped
	for i := head[a]; i >= 0; i = next[i] {
		var jStart int32
		if a == b {
			jStart = next[i]
		} else {
			jStart = head[b]
		}
		pi := pos[i]
		for j := jStart; j >= 0; j = next[j] {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			if l.excluded(lo, hi) {
				continue
			}
			d := vec.MinImageWrapped(pi.Sub(pos[j]), l.Box)
			if d.Norm2() <= r2 {
				out = append(out, Pair{lo, hi})
			}
		}
	}
	return out
}

// sortByI counting-sorts Pairs by their lower index (stable), so the
// force loop's accesses to pos[I]/f[I] are sequential. O(P + N), no
// allocation in steady state.
func (l *List) sortByI(n int) {
	if cap(l.offs) < n+1 {
		l.offs = make([]int32, n+1)
	}
	offs := l.offs[:n+1]
	for i := range offs {
		offs[i] = 0
	}
	for _, p := range l.Pairs {
		offs[p.I+1]++
	}
	for i := 1; i <= n; i++ {
		offs[i] += offs[i-1]
	}
	if cap(l.sorted) < len(l.Pairs) {
		l.sorted = make([]Pair, len(l.Pairs))
	}
	l.sorted = l.sorted[:len(l.Pairs)]
	for _, p := range l.Pairs {
		l.sorted[offs[p.I]] = p
		offs[p.I]++
	}
	l.Pairs, l.sorted = l.sorted, l.Pairs
}

// bounds returns the grid origin and far corner for already-wrapped
// positions.
func bounds(pos []vec.V, box vec.V) (lo, hi vec.V) {
	lo = vec.V{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi = lo.Neg()
	for _, p := range pos {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	if box.X > 0 {
		lo.X, hi.X = 0, box.X
	}
	if box.Y > 0 {
		lo.Y, hi.Y = 0, box.Y
	}
	if box.Z > 0 {
		lo.Z, hi.Z = 0, box.Z
	}
	// Avoid zero-extent axes.
	const eps = 1e-9
	if hi.X-lo.X < eps {
		hi.X = lo.X + 1
	}
	if hi.Y-lo.Y < eps {
		hi.Y = lo.Y + 1
	}
	if hi.Z-lo.Z < eps {
		hi.Z = lo.Z + 1
	}
	return lo, hi
}

func gridDim(extent, r float64) int {
	n := int(extent / r)
	if n < 1 {
		n = 1
	}
	if n > 1024 {
		n = 1024
	}
	return n
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// wrapCell maps a possibly out-of-range cell index into the grid; for
// non-periodic axes out-of-range neighbours are skipped. With fewer than
// three cells along a periodic axis, wrapping would visit the same cell
// twice, so wrapping is suppressed (the cell still spans the cutoff).
func wrapCell(c, n int, periodic bool) (int, bool) {
	if c >= 0 && c < n {
		return c, true
	}
	if !periodic || n < 3 {
		if n == 1 {
			return 0, c == 0 // degenerate single cell: neighbours collapse
		}
		return 0, false
	}
	return (c + n) % n, true
}

// BruteForcePairs returns all in-range non-excluded pairs by O(N²) scan.
// It is the reference implementation used by tests and the ablation bench.
func BruteForcePairs(pos []vec.V, cutoff float64, box vec.V, exclude func(i, j int) bool) []Pair {
	var out []Pair
	c2 := cutoff * cutoff
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if exclude != nil && exclude(i, j) {
				continue
			}
			d := vec.MinImage(pos[i].Sub(pos[j]), box)
			if d.Norm2() <= c2 {
				out = append(out, Pair{int32(i), int32(j)})
			}
		}
	}
	return out
}
