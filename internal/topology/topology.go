// Package topology describes the chemical structure of a SPICE simulation
// system: atoms (coarse-grained beads), bonded terms and exclusions, plus
// builders for the paper's translocation system — a single-stranded DNA
// chain, an alpha-hemolysin-like pore and a lipid-membrane slab.
//
// The paper's production system is a 300,000-atom all-atom model; we build
// the coarse-grained equivalent (one bead per nucleotide, explicit wall
// beads for the pore rim, analytic potentials for the rest) which preserves
// the statistical behaviour the SMD-JE method probes. See DESIGN.md §1.
package topology

import (
	"fmt"
	"math"
	"sort"

	"spice/internal/vec"
)

// Kind labels the coarse-grained bead species.
type Kind uint8

// Bead species.
const (
	KindDNA  Kind = iota // ssDNA nucleotide bead
	KindWall             // fixed pore-wall bead
	KindLipid
	KindIon
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDNA:
		return "dna"
	case KindWall:
		return "wall"
	case KindLipid:
		return "lipid"
	case KindIon:
		return "ion"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Atom is one coarse-grained bead.
type Atom struct {
	Kind   Kind
	Mass   float64 // amu
	Charge float64 // elementary charges
	Radius float64 // excluded-volume radius, Å
	Fixed  bool    // true for wall/scaffold beads that never move
}

// Bond is a harmonic bond between atoms I and J:
// E = K·(r - R0)².
type Bond struct {
	I, J int
	R0   float64 // Å
	K    float64 // kcal/mol/Å²
}

// Angle is a harmonic angle i-j-k: E = K·(θ - Theta0)².
type Angle struct {
	I, J, K int
	Theta0  float64 // radians
	KTheta  float64 // kcal/mol/rad²
}

// Topology is the complete static description of a system.
type Topology struct {
	Atoms  []Atom
	Bonds  []Bond
	Angles []Angle

	// excl[i] lists atom indices excluded from nonbonded interaction
	// with i (bonded 1-2 and 1-3 neighbours).
	excl map[int]map[int]bool

	// exclLists is the flat, per-atom sorted form of excl consumed by
	// the neighbor list's baked-exclusion check; rebuilt lazily.
	exclLists   [][]int32
	exclListsOK bool
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{excl: make(map[int]map[int]bool)}
}

// N returns the number of atoms.
func (t *Topology) N() int { return len(t.Atoms) }

// AddAtom appends an atom and returns its index.
func (t *Topology) AddAtom(a Atom) int {
	t.Atoms = append(t.Atoms, a)
	return len(t.Atoms) - 1
}

// AddBond appends a bond and records the 1-2 exclusion.
func (t *Topology) AddBond(b Bond) error {
	if err := t.checkIndex(b.I, b.J); err != nil {
		return err
	}
	if b.I == b.J {
		return fmt.Errorf("topology: self bond on atom %d", b.I)
	}
	t.Bonds = append(t.Bonds, b)
	t.exclude(b.I, b.J)
	return nil
}

// AddAngle appends an angle and records the 1-3 exclusion.
func (t *Topology) AddAngle(a Angle) error {
	if err := t.checkIndex(a.I, a.J, a.K); err != nil {
		return err
	}
	if a.I == a.J || a.J == a.K || a.I == a.K {
		return fmt.Errorf("topology: degenerate angle %d-%d-%d", a.I, a.J, a.K)
	}
	t.Angles = append(t.Angles, a)
	t.exclude(a.I, a.K)
	return nil
}

func (t *Topology) checkIndex(idx ...int) error {
	for _, i := range idx {
		if i < 0 || i >= len(t.Atoms) {
			return fmt.Errorf("topology: atom index %d out of range [0,%d)", i, len(t.Atoms))
		}
	}
	return nil
}

func (t *Topology) exclude(i, j int) {
	if t.excl[i] == nil {
		t.excl[i] = make(map[int]bool)
	}
	if t.excl[j] == nil {
		t.excl[j] = make(map[int]bool)
	}
	t.excl[i][j] = true
	t.excl[j][i] = true
	t.exclListsOK = false
}

// Excluded reports whether the nonbonded interaction between i and j is
// excluded (they share a bond or an angle).
func (t *Topology) Excluded(i, j int) bool { return t.excl[i][j] }

// ExclusionLists returns, for every atom, the sorted indices of its
// excluded nonbonded partners. The result is cached until the next
// AddBond/AddAngle and must not be mutated: the neighbor list bakes it in
// at build time so the hot pair scan never goes through a map or closure.
func (t *Topology) ExclusionLists() [][]int32 {
	if t.exclListsOK && len(t.exclLists) == len(t.Atoms) {
		return t.exclLists
	}
	lists := make([][]int32, len(t.Atoms))
	for i, m := range t.excl {
		if i < 0 || i >= len(t.Atoms) || len(m) == 0 {
			continue
		}
		l := make([]int32, 0, len(m))
		for j := range m {
			l = append(l, int32(j))
		}
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		lists[i] = l
	}
	t.exclLists = lists
	t.exclListsOK = true
	return lists
}

// MobileCount returns the number of non-fixed atoms.
func (t *Topology) MobileCount() int {
	n := 0
	for _, a := range t.Atoms {
		if !a.Fixed {
			n++
		}
	}
	return n
}

// Validate checks internal consistency: indices in range, positive masses
// on mobile atoms, no duplicate bonds.
func (t *Topology) Validate() error {
	for i, a := range t.Atoms {
		if !a.Fixed && a.Mass <= 0 {
			return fmt.Errorf("topology: mobile atom %d has non-positive mass %g", i, a.Mass)
		}
	}
	seen := make(map[[2]int]bool, len(t.Bonds))
	for _, b := range t.Bonds {
		if err := t.checkIndex(b.I, b.J); err != nil {
			return err
		}
		key := [2]int{min(b.I, b.J), max(b.I, b.J)}
		if seen[key] {
			return fmt.Errorf("topology: duplicate bond %d-%d", b.I, b.J)
		}
		seen[key] = true
	}
	for _, a := range t.Angles {
		if err := t.checkIndex(a.I, a.J, a.K); err != nil {
			return err
		}
	}
	return nil
}

// --- Builders -------------------------------------------------------------

// DNAParams sets the coarse-grained ssDNA model. The defaults follow the
// standard one-bead-per-nucleotide CG mapping.
type DNAParams struct {
	N        int     // number of nucleotides
	Mass     float64 // amu per bead
	Charge   float64 // e per bead (phosphate backbone)
	Radius   float64 // excluded-volume radius, Å
	BondR0   float64 // equilibrium backbone spacing, Å
	BondK    float64 // backbone stiffness, kcal/mol/Å²
	AngleK   float64 // bending stiffness, kcal/mol/rad²
	Theta0   float64 // equilibrium angle, rad
	StartZ   float64 // z of the first (leading) bead, Å
	Backbone vec.V   // initial chain direction (unit vector applied to BondR0)
}

// DefaultDNA returns the standard parameterization for an n-nucleotide
// strand: 325 amu/bead, -1e, 6.5 Å rise, moderately stiff backbone.
func DefaultDNA(n int) DNAParams {
	return DNAParams{
		N:        n,
		Mass:     325,
		Charge:   -1,
		Radius:   3.0,
		BondR0:   6.5,
		BondK:    30,
		AngleK:   5,
		Theta0:   math.Pi,
		StartZ:   0,
		Backbone: vec.V{X: 0, Y: 0, Z: -1},
	}
}

// BuildDNA appends an ssDNA chain to t and returns the bead indices (index
// 0 is the leading bead, the one the SMD spring pulls — the paper pulls
// the C3' atom of the leading nucleotide) and their initial positions.
func BuildDNA(t *Topology, p DNAParams) (idx []int, pos []vec.V, err error) {
	if p.N < 1 {
		return nil, nil, fmt.Errorf("topology: DNA needs at least 1 bead, got %d", p.N)
	}
	dir := p.Backbone.Unit()
	if dir == vec.Zero {
		return nil, nil, fmt.Errorf("topology: DNA backbone direction is zero")
	}
	start := vec.V{X: 0, Y: 0, Z: p.StartZ}
	for i := 0; i < p.N; i++ {
		id := t.AddAtom(Atom{Kind: KindDNA, Mass: p.Mass, Charge: p.Charge, Radius: p.Radius})
		idx = append(idx, id)
		pos = append(pos, start.Add(dir.Scale(float64(i)*p.BondR0)))
	}
	for i := 0; i+1 < p.N; i++ {
		if err := t.AddBond(Bond{I: idx[i], J: idx[i+1], R0: p.BondR0, K: p.BondK}); err != nil {
			return nil, nil, err
		}
	}
	if p.AngleK > 0 {
		for i := 0; i+2 < p.N; i++ {
			if err := t.AddAngle(Angle{I: idx[i], J: idx[i+1], K: idx[i+2], Theta0: p.Theta0, KTheta: p.AngleK}); err != nil {
				return nil, nil, err
			}
		}
	}
	return idx, pos, nil
}

// PoreParams describes the alpha-hemolysin-like pore geometry. The pore
// axis is z; z = 0 is the constriction between the cap vestibule (z > 0)
// and the transmembrane beta barrel (z < 0).
type PoreParams struct {
	VestibuleRadius    float64 // Å, wide cap entrance
	ConstrictionRadius float64 // Å, narrowest point
	BarrelRadius       float64 // Å, beta barrel stem
	VestibuleLength    float64 // Å, extent of cap above z=0
	BarrelLength       float64 // Å, extent of barrel below z=0
	Corrugation        float64 // Å, amplitude of the cos(7θ) seven-fold term
	WallBeadSpacing    float64 // Å, arc spacing of explicit wall beads (0 = none)
	WallBeadRadius     float64 // Å
}

// DefaultPore returns hemolysin-like dimensions (cap vestibule ~46 Å wide
// narrowing to a ~14 Å constriction, ~52 Å barrel; Song et al. 1996 scaled
// to our CG bead sizes).
func DefaultPore() PoreParams {
	return PoreParams{
		VestibuleRadius:    13,
		ConstrictionRadius: 4.5,
		BarrelRadius:       8,
		VestibuleLength:    35,
		BarrelLength:       50,
		Corrugation:        0.6,
		WallBeadSpacing:    4.0,
		WallBeadRadius:     2.0,
	}
}

// Radius returns the pore's inner radius at height z and azimuth theta,
// including the seven-fold corrugation. Outside the pore extent it returns
// +Inf (no confinement).
func (p PoreParams) Radius(z, theta float64) float64 {
	base := p.AxialRadius(z)
	if math.IsInf(base, 1) {
		return base
	}
	return base + p.Corrugation*math.Cos(7*theta)
}

// AxialRadius returns the axisymmetric part of the radius profile using
// smooth cosine blends between the three sections.
func (p PoreParams) AxialRadius(z float64) float64 {
	switch {
	case z > p.VestibuleLength || z < -p.BarrelLength:
		return math.Inf(1)
	case z >= 0:
		// Blend constriction -> vestibule over the cap height.
		t := z / p.VestibuleLength // 0 at constriction, 1 at mouth
		s := 0.5 - 0.5*math.Cos(math.Pi*t)
		return p.ConstrictionRadius + (p.VestibuleRadius-p.ConstrictionRadius)*s
	default:
		// Blend constriction -> barrel over the first quarter of the stem.
		rise := p.BarrelLength / 4
		t := math.Min(-z/rise, 1)
		s := 0.5 - 0.5*math.Cos(math.Pi*t)
		return p.ConstrictionRadius + (p.BarrelRadius-p.ConstrictionRadius)*s
	}
}

// BuildPoreWalls appends fixed wall beads tracing the pore surface and
// returns their indices and positions. Beads are placed on rings spaced
// WallBeadSpacing apart along z, each ring holding enough beads to keep
// the arc spacing near WallBeadSpacing. With WallBeadSpacing == 0 no beads
// are created (analytic confinement only).
func BuildPoreWalls(t *Topology, p PoreParams) (idx []int, pos []vec.V) {
	if p.WallBeadSpacing <= 0 {
		return nil, nil
	}
	for z := -p.BarrelLength; z <= p.VestibuleLength; z += p.WallBeadSpacing {
		r := p.AxialRadius(z)
		if math.IsInf(r, 1) {
			continue
		}
		circumference := 2 * math.Pi * r
		nring := int(math.Max(4, math.Round(circumference/p.WallBeadSpacing)))
		for k := 0; k < nring; k++ {
			theta := 2 * math.Pi * float64(k) / float64(nring)
			rr := p.Radius(z, theta) + p.WallBeadRadius
			id := t.AddAtom(Atom{Kind: KindWall, Mass: 100, Radius: p.WallBeadRadius, Fixed: true})
			idx = append(idx, id)
			pos = append(pos, vec.V{X: rr * math.Cos(theta), Y: rr * math.Sin(theta), Z: z})
		}
	}
	return idx, pos
}

// MembraneParams describes the lipid slab the pore is embedded in.
type MembraneParams struct {
	ZMin, ZMax  float64 // slab extent along z, Å
	HalfWidth   float64 // lateral half-extent for explicit beads, Å
	BeadSpacing float64 // 0 = analytic slab only
	BeadRadius  float64
}

// DefaultMembrane places the slab around the beta barrel.
func DefaultMembrane() MembraneParams {
	return MembraneParams{ZMin: -45, ZMax: -15, HalfWidth: 40, BeadSpacing: 0, BeadRadius: 3}
}

// Contains reports whether z lies inside the membrane slab.
func (m MembraneParams) Contains(z float64) bool { return z >= m.ZMin && z <= m.ZMax }

// BuildMembrane appends explicit lipid head beads on the two slab faces
// (outside the pore radius rPore) when BeadSpacing > 0.
func BuildMembrane(t *Topology, m MembraneParams, pore PoreParams) (idx []int, pos []vec.V) {
	if m.BeadSpacing <= 0 {
		return nil, nil
	}
	for _, z := range []float64{m.ZMin, m.ZMax} {
		rp := pore.AxialRadius(z)
		for x := -m.HalfWidth; x <= m.HalfWidth; x += m.BeadSpacing {
			for y := -m.HalfWidth; y <= m.HalfWidth; y += m.BeadSpacing {
				r := math.Hypot(x, y)
				if !math.IsInf(rp, 1) && r < rp+2*m.BeadRadius {
					continue // keep the pore mouth clear
				}
				id := t.AddAtom(Atom{Kind: KindLipid, Mass: 200, Radius: m.BeadRadius, Fixed: true})
				idx = append(idx, id)
				pos = append(pos, vec.V{X: x, Y: y, Z: z})
			}
		}
	}
	return idx, pos
}
