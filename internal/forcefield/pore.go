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
	// Below this squared axial distance hypot(x, y) <= BulkRadius holds
	// even after rounding (2^-30 of margin against a few ulps of error),
	// so the bulk cylinder cannot act. +Inf when the cylinder is off; 0
	// (never skip) when BulkRadius is too small for the bound.
	inside := math.Inf(1)
	if pf.BulkRadius > 0 {
		inside = pf.BulkRadius * pf.BulkRadius * (1 - 0x1p-30)
		if inside < 0x1p-1000 {
			inside = 0
		}
	}
	e := 0.0
	for _, i := range pf.Mobile {
		e += pf.atomEnergy(i, pos[i], &f[i], inside)
	}
	return e
}

// atomEnergy accumulates the force on one atom and returns its energy.
// Outside the pore's axial extent only the bulk cylinder reads the axial
// distance r, so a bead with x²+y² < inside skips its hypot.
func (pf *PoreField) atomEnergy(i int, p vec.V, fi *vec.V, inside float64) float64 {
	e := 0.0
	var r float64
	if p.Z >= -pf.Pore.BarrelLength && p.Z <= pf.Pore.VestibuleLength {
		r = math.Hypot(p.X, p.Y)
		si := 0.0
		if i < len(pf.Radii) {
			si = pf.Radii[i]
		}
		e += pf.wall(p, r, si, fi)
	} else {
		if pf.Membrane.Contains(p.Z) {
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
		if p.X*p.X+p.Y*p.Y < inside {
			return e
		}
		r = math.Hypot(p.X, p.Y)
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

// wall adds the harmonic wall force on a bead at p, within the pore's
// axial extent, at axial distance r and of radius si, and returns its
// energy ½·K·d², where d = r - (R(z, θ) - si) > 0.
func (pf *PoreField) wall(p vec.V, r, si float64, fi *vec.V) float64 {
	// R >= AxialRadius - |Corrugation| for every θ, so a bead inside that
	// by 2^-40 of the radius (far beyond rounding) has d < 0: skip the
	// atan2 and cos(7θ).
	if si >= 0 && r+si+math.Abs(pf.Pore.Corrugation) < pf.Pore.AxialRadius(p.Z)*(1-0x1p-40) {
		return 0
	}
	theta := math.Atan2(p.Y, p.X)
	d := r - (pf.Pore.Radius(p.Z, theta) - si)
	if !(d > 0) {
		return 0
	}
	dEdr := pf.KWall * d
	// R depends on θ and z; chain rule.
	dRdtheta := -7 * pf.Pore.Corrugation * math.Sin(7*theta)
	dEdtheta := -dEdr * dRdtheta
	dEdz := -dEdr * pf.axialSlope(p.Z)

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
	return 0.5 * pf.KWall * d * d
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

// Exact skips of far binding-site terms. A site's term is skipped only
// where adding it provably leaves e and f[i].Z unchanged, bit for bit: a
// normal x lies more than |x|·2^-54 from its neighbours, so adding y with
// |y| <= |x|·2^-55 rounds back to x. When dz² > 90·w²,
// exp(-dz²/2w²) < exp(-45) ≈ 2.86e-20, so the energy term is below
// |Depth|·gaussMax and, since g·|dz| falls for |dz| > w, the force term
// below |Depth|·gaussMax·√90/w; gaussMax leaves 1.8x for rounding. For
// the default sites that lets |e| above 0.012 and |f.Z| above 0.043
// skip; smaller values are computed.
const (
	bindingCut2 = 90
	gaussMax    = 5.2e-20
	sqrtCut     = 9.486832980505138 // √bindingCut2
)

// siteBound is a binding site with its per-call constants: the squared
// width, the skip distance, and the magnitudes |e| and |f.Z| must exceed
// (at least the smallest normal, so 0, subnormals and NaN never skip).
type siteBound struct {
	z, depth, w2, cut2, eMin, fMin float64
}

// AddForces implements Term.
func (b *BindingSites) AddForces(pos []vec.V, f []vec.V) float64 {
	var buf [4]siteBound
	sites := buf[:0]
	// [lo, hi] covers every site's skip band with room to spare (91·w²
	// against 90·w²), so a bead outside it skips each site; eAll and
	// fAll are the largest per-site minimums. NaN propagates through
	// math.Min/Max and turns the bead-level skip off.
	lo, hi := math.Inf(1), math.Inf(-1)
	eAll, fAll := 0.0, 0.0
	for _, s := range b.Sites {
		w2 := s.Width * s.Width
		d := math.Abs(s.Depth) * gaussMax * 0x1p55
		sb := siteBound{z: s.Z, depth: s.Depth, w2: w2, cut2: bindingCut2 * w2,
			eMin: math.Max(d, 0x1p-1022), fMin: math.Max(d*sqrtCut/math.Sqrt(w2), 0x1p-1022)}
		r := math.Sqrt((bindingCut2 + 1) * w2)
		lo, hi = math.Min(lo, s.Z-r), math.Max(hi, s.Z+r)
		eAll, fAll = math.Max(eAll, sb.eMin), math.Max(fAll, sb.fMin)
		sites = append(sites, sb)
	}
	if !(-0x1p1000 <= lo && hi <= 0x1p1000) {
		lo, hi = math.Inf(-1), math.Inf(1) // no sites, or one too far out to bound z - Z
	}
	e := 0.0
	for _, i := range b.Atoms {
		z := pos[i].Z
		fz := &f[i].Z
		if (z < lo || z > hi) && math.Abs(z) <= 0x1p1000 && math.Abs(e) > eAll && math.Abs(*fz) > fAll {
			continue
		}
		for k := range sites {
			s := &sites[k]
			dz := z - s.z
			dz2 := dz * dz
			if dz2 > s.cut2 && dz2 <= math.MaxFloat64 && math.Abs(e) > s.eMin && math.Abs(*fz) > s.fMin {
				continue
			}
			g := math.Exp(-dz2 / (2 * s.w2))
			dg := s.depth * g
			e -= dg
			// F_z = -dE/dz = -Depth·g·dz/w².
			*fz -= dg * dz / s.w2
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
