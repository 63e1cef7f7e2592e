package forcefield

import (
	"math"

	"spice/internal/topology"
	"spice/internal/vec"
)

// PoreField is the analytic confinement field of the hemolysin-like pore
// embedded in a membrane slab. Mobile beads whose centers cross the pore's
// inner surface r = R(z,θ) - s_i feel a harmonic wall; beads inside the
// membrane slab but outside the pore feel a slab expulsion; far from the
// pore a wide soft cylinder keeps the system near the axis (standing in
// for the periodic water box of the all-atom model).
type PoreField struct {
	Pore     topology.PoreParams
	Membrane topology.MembraneParams
	// KWall is the wall stiffness in kcal/mol/Å².
	KWall float64
	// KSlab is the membrane expulsion stiffness in kcal/mol/Å².
	KSlab float64
	// BulkRadius is the soft outer cylinder radius in Å (0 disables).
	BulkRadius float64
	// KBulk is the outer cylinder stiffness.
	KBulk float64
	// Mobile restricts the field to these atom indices (nil = all).
	Mobile []int
	// Radii holds per-atom excluded radii (indexed by atom).
	Radii []float64
}

// NewPoreField builds the field for all mobile atoms of top.
func NewPoreField(top *topology.Topology, pore topology.PoreParams, mem topology.MembraneParams) *PoreField {
	pf := &PoreField{
		Pore:       pore,
		Membrane:   mem,
		KWall:      50,
		KSlab:      20,
		BulkRadius: 45,
		KBulk:      2,
		Radii:      make([]float64, top.N()),
	}
	for i, a := range top.Atoms {
		pf.Radii[i] = a.Radius
		if !a.Fixed {
			pf.Mobile = append(pf.Mobile, i)
		}
	}
	return pf
}

// Name implements Term.
func (*PoreField) Name() string { return "pore" }

// AddForces implements Term.
func (pf *PoreField) AddForces(pos []vec.V, f []vec.V) float64 {
	idx := pf.Mobile
	e := 0.0
	for _, i := range idx {
		e += pf.atomEnergy(i, pos[i], &f[i])
	}
	return e
}

// atomEnergy accumulates the force on one atom and returns its energy.
func (pf *PoreField) atomEnergy(i int, p vec.V, fi *vec.V) float64 {
	r := math.Hypot(p.X, p.Y)
	si := 0.0
	if i < len(pf.Radii) {
		si = pf.Radii[i]
	}
	e := 0.0

	inPore := p.Z >= -pf.Pore.BarrelLength && p.Z <= pf.Pore.VestibuleLength
	if inPore {
		theta := math.Atan2(p.Y, p.X)
		R := pf.Pore.Radius(p.Z, theta)
		allowed := R - si
		d := r - allowed
		if d > 0 {
			// Harmonic wall: E = ½·K·d².
			e += 0.5 * pf.KWall * d * d
			dEdr := pf.KWall * d
			// R depends on θ and z; chain rule.
			dRdtheta := -7 * pf.Pore.Corrugation * math.Sin(7*theta)
			dRdz := pf.axialSlope(p.Z)
			dEdtheta := -dEdr * dRdtheta
			dEdz := -dEdr * dRdz

			// Convert cylindrical gradient to Cartesian force.
			var er, et vec.V
			if r > 1e-12 {
				er = vec.V{X: p.X / r, Y: p.Y / r}
				et = vec.V{X: -p.Y / r, Y: p.X / r}
			}
			fi.AddScaled(-dEdr, er)
			if r > 1e-12 {
				fi.AddScaled(-dEdtheta/r, et)
			}
			fi.Z -= dEdz
		}
	} else if pf.Membrane.Contains(p.Z) {
		// Inside the slab but outside the pore extent: expel along z
		// through the nearest face.
		dLow := p.Z - pf.Membrane.ZMin
		dHigh := pf.Membrane.ZMax - p.Z
		d := math.Min(dLow, dHigh)
		e += 0.5 * pf.KSlab * d * d
		if dLow < dHigh {
			fi.Z -= pf.KSlab * d // push down and out
		} else {
			fi.Z += pf.KSlab * d // push up and out
		}
	}

	// Wide soft cylinder standing in for the bulk water box.
	if pf.BulkRadius > 0 && r > pf.BulkRadius {
		d := r - pf.BulkRadius
		e += 0.5 * pf.KBulk * d * d
		if r > 1e-12 {
			g := -pf.KBulk * d / r
			fi.X += g * p.X
			fi.Y += g * p.Y
		}
	}
	return e
}

// axialSlope returns dR/dz of the axisymmetric profile by central
// difference (the blends are smooth; 1e-4 Å steps are ample).
func (pf *PoreField) axialSlope(z float64) float64 {
	const h = 1e-4
	lo, hi := pf.Pore.AxialRadius(z-h), pf.Pore.AxialRadius(z+h)
	if math.IsInf(lo, 1) || math.IsInf(hi, 1) {
		return 0
	}
	return (hi - lo) / (2 * h)
}

// BindingSite is an attractive ring inside the pore — the CG analogue of
// the chemical interaction sites (charged rings, aromatic residues) that
// give the hemolysin PMF its structure.
type BindingSite struct {
	Z     float64 // axial center, Å
	Depth float64 // well depth, kcal/mol (positive = attractive)
	Width float64 // Gaussian width, Å
}

// BindingSites applies axial Gaussian wells to a set of atoms (the DNA
// beads): E_i = -Depth·exp(-(z_i-Z)²/(2·Width²)).
type BindingSites struct {
	Sites []BindingSite
	Atoms []int // affected atom indices
}

// DefaultBindingSites returns the well pattern used across the Fig. 3/4
// experiments: a deep well just below the constriction (the charged-ring
// contact that dominates the hemolysin PMF — ~10 kT in this CG scaling),
// a moderate well in the barrel binding pocket and a shallow one in the
// vestibule. The deep constriction well is what makes the spring-constant
// choice consequential: a soft spring (κ = 10 pN/Å) smears it, a very
// stiff spring (κ = 1000 pN/Å) pays large work fluctuations on the forced
// escape — the paper's Fig. 4 tradeoff.
func DefaultBindingSites(atoms []int) *BindingSites {
	return &BindingSites{
		Sites: []BindingSite{
			{Z: -2, Depth: 6, Width: 2.5},
			{Z: -12, Depth: 1.2, Width: 4},
			{Z: 10, Depth: 0.6, Width: 5},
		},
		Atoms: atoms,
	}
}

// Name implements Term.
func (*BindingSites) Name() string { return "binding-sites" }

// AddForces implements Term.
func (b *BindingSites) AddForces(pos []vec.V, f []vec.V) float64 {
	e := 0.0
	for _, i := range b.Atoms {
		z := pos[i].Z
		for _, s := range b.Sites {
			dz := z - s.Z
			w2 := s.Width * s.Width
			g := math.Exp(-dz * dz / (2 * w2))
			e -= s.Depth * g
			// F_z = -dE/dz = -Depth·g·dz/w².
			f[i].Z -= s.Depth * g * dz / w2
		}
	}
	return e
}

// ExternalForces applies per-atom forces injected from outside the engine —
// the IMD path: the visualizer (or haptic device) sends forces which the
// steering layer deposits here before each step.
type ExternalForces struct {
	// F maps atom index to applied force (kcal/mol/Å).
	F map[int]vec.V
}

// NewExternalForces returns an empty external force holder.
func NewExternalForces() *ExternalForces { return &ExternalForces{F: make(map[int]vec.V)} }

// Name implements Term.
func (*ExternalForces) Name() string { return "external" }

// Set replaces the force on atom i.
func (x *ExternalForces) Set(i int, f vec.V) { x.F[i] = f }

// Clear removes all applied forces.
func (x *ExternalForces) Clear() {
	for k := range x.F {
		delete(x.F, k)
	}
}

// AddForces implements Term. External forces are non-conservative; the
// returned energy is zero by convention.
func (x *ExternalForces) AddForces(_ []vec.V, f []vec.V) float64 {
	for i, fi := range x.F {
		if i >= 0 && i < len(f) {
			f[i].AddInPlace(fi)
		}
	}
	return 0
}
