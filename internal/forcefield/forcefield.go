// Package forcefield implements the coarse-grained potential energy terms
// of the SPICE translocation model: harmonic bonds and angles along the
// ssDNA backbone, WCA excluded volume and Debye–Hückel screened
// electrostatics between nonbonded beads, and the analytic confinement
// field of the hemolysin-like pore embedded in a membrane slab.
//
// Every term satisfies the Term interface: it accumulates forces into a
// caller-provided slice and returns its potential energy. The nonbonded
// potential, Combined, is evaluated over the engine's neighbor list
// instead (AddPairForces).
package forcefield

import (
	"math"

	"spice/internal/neighbor"
	"spice/internal/topology"
	"spice/internal/vec"
)

// Term is an additive potential-energy contribution.
type Term interface {
	// Name identifies the term in logs and energy breakdowns.
	Name() string
	// AddForces adds -∇E to f (which has one entry per atom) and
	// returns the term's potential energy, both in internal units.
	AddForces(pos []vec.V, f []vec.V) float64
}

// --- Bonded terms ----------------------------------------------------------

// Bonds evaluates all harmonic bonds of a topology: E = Σ K(r-R0)².
type Bonds struct{ Top *topology.Topology }

// Name implements Term.
func (Bonds) Name() string { return "bond" }

// AddForces implements Term.
func (b Bonds) AddForces(pos []vec.V, f []vec.V) float64 {
	e := 0.0
	for _, bd := range b.Top.Bonds {
		d := pos[bd.I].Sub(pos[bd.J])
		r := d.Norm()
		if r == 0 {
			continue // coincident beads exert no well-defined bond force
		}
		dr := r - bd.R0
		e += bd.K * dr * dr
		// F_i = -dE/dr · d/r = -2K·dr/r · d
		g := -2 * bd.K * dr / r
		f[bd.I].AddScaled(g, d)
		f[bd.J].AddScaled(-g, d)
	}
	return e
}

// Angles evaluates harmonic angles: E = Σ K(θ-θ0)².
type Angles struct{ Top *topology.Topology }

// Name implements Term.
func (Angles) Name() string { return "angle" }

// AddForces implements Term.
func (a Angles) AddForces(pos []vec.V, f []vec.V) float64 {
	e := 0.0
	for _, an := range a.Top.Angles {
		rij := pos[an.I].Sub(pos[an.J])
		rkj := pos[an.K].Sub(pos[an.J])
		nij, nkj := rij.Norm(), rkj.Norm()
		if nij == 0 || nkj == 0 {
			continue
		}
		cos := rij.Dot(rkj) / (nij * nkj)
		// Clamp to [-1, 1]; NaN and ±0 pass through, as with
		// math.Max(-1, math.Min(1, cos)).
		if cos > 1 {
			cos = 1
		} else if cos < -1 {
			cos = -1
		}
		theta := math.Acos(cos)
		dth := theta - an.Theta0
		e += an.KTheta * dth * dth

		sin := math.Sqrt(1 - cos*cos)
		if sin < 1e-8 {
			continue // collinear: force direction undefined, energy still counted
		}
		// dE/dθ = 2K·dθ ; standard angle-force decomposition.
		// F_i = -dE/dθ·dθ/dri with dθ/dri = -(1/sinθ)·dcosθ/dri,
		// so F_i = (dE/dθ/sinθ)·dcosθ/dri and dE/dθ = 2K·dθ.
		c := 2 * an.KTheta * dth / sin
		fi := rkj.Scale(1 / (nij * nkj)).Sub(rij.Scale(cos / (nij * nij))).Scale(c)
		fk := rij.Scale(1 / (nij * nkj)).Sub(rkj.Scale(cos / (nkj * nkj))).Scale(c)
		f[an.I].AddInPlace(fi)
		f[an.K].AddInPlace(fk)
		f[an.J].SubInPlace(fi.Add(fk))
	}
	return e
}

// --- Nonbonded pair potential ---------------------------------------------

// WCA is the Weeks–Chandler–Andersen purely repulsive Lennard-Jones core.
// Sigma is derived per pair from the bead radii: σ = si + sj.
type WCA struct {
	Epsilon float64 // kcal/mol
	MaxCut  float64 // Å; pair cutoff used for neighbor listing
}

// cbrt2 is 2^{1/3}, precomputed: math.Cbrt is a function call the
// compiler does not fold.
const cbrt2 = 1.2599210498948731648

// DebyeHuckel is screened Coulomb electrostatics:
// E = C·qi·qj/(εr·r)·exp(-r/λD), truncated at Cut.
type DebyeHuckel struct {
	// Lambda is the Debye screening length in Å (7.9 Å at 150 mM
	// monovalent salt, the condition of the paper's experiments).
	Lambda float64
	// EpsR is the relative dielectric constant of the solvent.
	EpsR float64
	// Cut is the truncation distance in Å.
	Cut float64
}

// CoulombConst is e²/(4πε0) in kcal/mol·Å: 332.0637.
const CoulombConst = 332.0637

// Combined sums a WCA core and Debye–Hückel tail; the usual nonbonded
// potential for CG polyelectrolytes, and the only one the engine runs.
type Combined struct {
	Core WCA
	Elec DebyeHuckel
}

// Cutoff returns the interaction range in Å: the larger of the two.
func (c *Combined) Cutoff() float64 { return math.Max(c.Core.MaxCut, c.Elec.Cut) }

// AddPairForces evaluates the potential over pairs in list order and
// returns its energy. For each pair it adds g·d to f[i] and -g·d to f[j],
// where d = pos[i] - pos[j] and g = -(dE/dr)/r; q and s are the per-atom
// charges and radii. Pairs beyond a cutoff, coincident pairs and
// uncharged pairs contribute nothing to that part; a NaN distance
// propagates into the energy and forces.
func (c *Combined) AddPairForces(pairs []neighbor.Pair, q, s []float64, pos, f []vec.V) float64 {
	// Constants of the whole loop, computed exactly as the per-pair
	// expressions would compute them (4ε and 24ε are the leftmost
	// products of their expressions), so every float is unchanged.
	eps := c.Core.Epsilon
	eps4, eps24 := 4*eps, 24*eps
	epsR := c.Elec.EpsR
	invL := 1 / c.Elec.Lambda
	cut2 := c.Elec.Cut * c.Elec.Cut
	total := 0.0
	for _, p := range pairs {
		i, j := int(p.I), int(p.J)
		d := pos[i].Sub(pos[j])
		r2 := d.Norm2()
		qi, qj := q[i], q[j]

		// WCA core, cut at the potential minimum 2^{1/6}σ:
		// (2^{1/6}σ)² = σ²·2^{1/3}. The compares are negated so a NaN
		// r2 is evaluated, not skipped.
		var e1, g1 float64
		sigma := s[i] + s[j]
		if !(r2 >= sigma*sigma*cbrt2 || r2 == 0) {
			s2 := sigma * sigma / r2
			s6 := s2 * s2 * s2
			s12 := s6 * s6
			e1 = eps4*(s12-s6) + eps
			// -dE/dr / r = 24ε(2·s12 - s6)/r²
			g1 = eps24 * (2*s12 - s6) / r2
		}

		// Debye–Hückel tail.
		var e2, g2 float64
		if !(qi == 0 || qj == 0 || r2 == 0 || r2 >= cut2) {
			r := math.Sqrt(r2)
			invR := 1 / r
			e2 = CoulombConst * qi * qj / epsR * invR * math.Exp(-r*invL)
			// dE/dr = -e·(1/r + 1/λ); g = -(dE/dr)/r
			g2 = e2 * (invR + invL) * invR
		}

		en, g := e1+e2, g1+g2
		if en == 0 && g == 0 {
			continue
		}
		total += en
		f[i].AddScaled(g, d)
		f[j].AddScaled(-g, d)
	}
	return total
}
