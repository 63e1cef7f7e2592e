package forcefield

import (
	"math"
	"testing"

	"spice/internal/neighbor"
	"spice/internal/topology"
	"spice/internal/vec"
	"spice/internal/xrand"
)

// The references below are the terms as they were written before the
// step kernel skipped provable no-ops and hoisted its constants. The
// production terms must match them bit for bit on every input,
// adversarial ones included: ±0, subnormal and NaN accumulators, inputs
// exactly at each threshold, and NaN and ±Inf positions. Any NaN matches
// any NaN: Go fixes no NaN sign or payload, and the compiler may swap the
// operands of a commutative operation, which picks the NaN that survives.

// refEnergyForce is the per-pair Combined.EnergyForce the engine used to
// call through its generic pair kernel.
func refEnergyForce(c Combined, r2, qi, qj, si, sj float64) (float64, float64) {
	var e1, g1, e2, g2 float64
	sigma := si + sj
	rc2 := sigma * sigma * cbrt2
	if !(r2 >= rc2 || r2 == 0) {
		s2 := sigma * sigma / r2
		s6 := s2 * s2 * s2
		s12 := s6 * s6
		e1 = 4*c.Core.Epsilon*(s12-s6) + c.Core.Epsilon
		g1 = 24 * c.Core.Epsilon * (2*s12 - s6) / r2
	}
	d := c.Elec
	if !(qi == 0 || qj == 0 || r2 == 0) && !(r2 >= d.Cut*d.Cut) {
		r := math.Sqrt(r2)
		invR := 1 / r
		invL := 1 / d.Lambda
		e2 = CoulombConst * qi * qj / d.EpsR * invR * math.Exp(-r*invL)
		g2 = e2 * (invR + invL) * invR
	}
	return e1 + e2, g1 + g2
}

// refPairForces is the generic pair kernel's loop.
func refPairForces(c Combined, pairs []neighbor.Pair, q, s []float64, pos, f []vec.V) float64 {
	total := 0.0
	for _, p := range pairs {
		i, j := int(p.I), int(p.J)
		d := pos[i].Sub(pos[j])
		en, g := refEnergyForce(c, d.Norm2(), q[i], q[j], s[i], s[j])
		if en == 0 && g == 0 {
			continue
		}
		total += en
		f[i].AddScaled(g, d)
		f[j].AddScaled(-g, d)
	}
	return total
}

// refBindingForces is the BindingSites loop that evaluated every
// (bead, site) Gaussian.
func refBindingForces(b *BindingSites, pos, f []vec.V) float64 {
	e := 0.0
	for _, i := range b.Atoms {
		z := pos[i].Z
		for _, s := range b.Sites {
			dz := z - s.Z
			w2 := s.Width * s.Width
			g := math.Exp(-dz * dz / (2 * w2))
			e -= s.Depth * g
			f[i].Z -= s.Depth * g * dz / w2
		}
	}
	return e
}

// refPoreForces is PoreField.AddForces with the atomEnergy that took the
// hypot of every bead.
func refPoreForces(pf *PoreField, pos, f []vec.V) float64 {
	e := 0.0
	for _, i := range pf.Mobile {
		e += refAtomEnergy(pf, i, pos[i], &f[i])
	}
	return e
}

func refAtomEnergy(pf *PoreField, i int, p vec.V, fi *vec.V) float64 {
	r := math.Hypot(p.X, p.Y)
	si := 0.0
	if i < len(pf.Radii) {
		si = pf.Radii[i]
	}
	e := 0.0
	if p.Z >= -pf.Pore.BarrelLength && p.Z <= pf.Pore.VestibuleLength {
		theta := math.Atan2(p.Y, p.X)
		d := r - (pf.Pore.Radius(p.Z, theta) - si)
		if d > 0 {
			e += 0.5 * pf.KWall * d * d
			dEdr := pf.KWall * d
			dRdtheta := -7 * pf.Pore.Corrugation * math.Sin(7*theta)
			dEdtheta := -dEdr * dRdtheta
			dEdz := -dEdr * pf.axialSlope(p.Z)
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
		dLow := p.Z - pf.Membrane.ZMin
		dHigh := pf.Membrane.ZMax - p.Z
		d := math.Min(dLow, dHigh)
		e += 0.5 * pf.KSlab * d * d
		if dLow < dHigh {
			fi.Z -= pf.KSlab * d
		} else {
			fi.Z += pf.KSlab * d
		}
	}
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

// refAngleForces is Angles.AddForces with its math.Max/math.Min clamp.
func refAngleForces(a Angles, pos, f []vec.V) float64 {
	e := 0.0
	for _, an := range a.Top.Angles {
		rij := pos[an.I].Sub(pos[an.J])
		rkj := pos[an.K].Sub(pos[an.J])
		nij, nkj := rij.Norm(), rkj.Norm()
		if nij == 0 || nkj == 0 {
			continue
		}
		cos := rij.Dot(rkj) / (nij * nkj)
		cos = math.Max(-1, math.Min(1, cos))
		dth := math.Acos(cos) - an.Theta0
		e += an.KTheta * dth * dth
		sin := math.Sqrt(1 - cos*cos)
		if sin < 1e-8 {
			continue
		}
		c := 2 * an.KTheta * dth / sin
		fi := rkj.Scale(1 / (nij * nkj)).Sub(rij.Scale(cos / (nij * nij))).Scale(c)
		fk := rij.Scale(1 / (nij * nkj)).Sub(rkj.Scale(cos / (nkj * nkj))).Scale(c)
		f[an.I].AddInPlace(fi)
		f[an.K].AddInPlace(fk)
		f[an.J].SubInPlace(fi.Add(fk))
	}
	return e
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameVec(a, b vec.V) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z) }

// requireSame runs want and got on copies of the same force array and
// fails unless energy and every force component agree bit for bit.
func requireSame(t *testing.T, label string, f0 []vec.V, want, got func(f []vec.V) float64) {
	t.Helper()
	fw := append([]vec.V(nil), f0...)
	fg := append([]vec.V(nil), f0...)
	ew, eg := want(fw), got(fg)
	if !sameBits(ew, eg) {
		t.Fatalf("%s: energy %v (%#x), reference %v (%#x)", label, eg, math.Float64bits(eg), ew, math.Float64bits(ew))
	}
	for i := range fw {
		if !sameVec(fw[i], fg[i]) {
			t.Fatalf("%s: force on atom %d %v, reference %v", label, i, fg[i], fw[i])
		}
	}
}

// oddFloats are the accumulator values the exactness rule singles out.
var oddFloats = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 0x1p-1022, math.NaN(), math.Inf(1), math.Inf(-1), 1e-30, -3.7, 1e6}

// randomForces fills n force vectors with ordinary values and, now and
// then, one of oddFloats.
func randomForces(rng *xrand.Source, n int) []vec.V {
	f := make([]vec.V, n)
	pick := func() float64 {
		if rng.Intn(4) == 0 {
			return oddFloats[rng.Intn(len(oddFloats))]
		}
		return 10 * rng.NormFloat64()
	}
	for i := range f {
		f[i] = vec.V{X: pick(), Y: pick(), Z: pick()}
	}
	return f
}

// squareRootOf returns an x with x*x == v exactly in floating point,
// searching a few ulps around √v, and whether one exists there.
func squareRootOf(v float64) (float64, bool) {
	x := math.Sqrt(v)
	for k := 0; k < 8; k++ {
		x = math.Nextafter(x, 0)
	}
	for k := 0; k < 16; k++ {
		if x*x == v {
			return x, true
		}
		x = math.Nextafter(x, math.Inf(1))
	}
	return 0, false
}

func TestPairForcesBitExact(t *testing.T) {
	pots := []Combined{
		{Core: WCA{Epsilon: 0.3, MaxCut: 12}, Elec: DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24}},
		{Core: WCA{Epsilon: 0.3, MaxCut: 10}, Elec: DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 10}},
		{Core: WCA{Epsilon: 1.7, MaxCut: 5}, Elec: DebyeHuckel{Lambda: 3, EpsR: 2, Cut: 9.5}},
	}
	rng := xrand.New(44)
	charges := []float64{-1, 0, 0.5, -0.2, 1}
	radii := []float64{0, 1, 1.5, 3}
	for trial := 0; trial < 200; trial++ {
		c := pots[trial%len(pots)]
		n := 2 + rng.Intn(30)
		pos := make([]vec.V, n)
		q := make([]float64, n)
		s := make([]float64, n)
		for i := range pos {
			pos[i] = vec.V{X: 20 * rng.Float64(), Y: 20 * rng.Float64(), Z: 20 * rng.Float64()}
			q[i] = charges[rng.Intn(len(charges))]
			s[i] = radii[rng.Intn(len(radii))]
		}
		var pairs []neighbor.Pair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, neighbor.Pair{I: int32(i), J: int32(j)})
			}
		}
		requireSame(t, "random", randomForces(rng, n),
			func(f []vec.V) float64 { return refPairForces(c, pairs, q, s, pos, f) },
			func(f []vec.V) float64 { return c.AddPairForces(pairs, q, s, pos, f) })
	}

	// One pair at a chosen separation x along the x axis: r2 = x*x.
	one := []neighbor.Pair{{I: 0, J: 1}}
	check := func(label string, c Combined, x, qi, qj, si, sj float64) {
		t.Helper()
		pos := []vec.V{{X: x}, {}}
		q, s := []float64{qi, qj}, []float64{si, sj}
		for _, f0 := range [][]vec.V{make([]vec.V, 2), randomForces(rng, 2)} {
			requireSame(t, label, f0,
				func(f []vec.V) float64 { return refPairForces(c, one, q, s, pos, f) },
				func(f []vec.V) float64 { return c.AddPairForces(one, q, s, pos, f) })
		}
	}
	atCore := 0
	for _, c := range pots {
		check("r2 = 0", c, 0, -1, -1, 1.5, 1.5)
		check("r2 = 0, uncharged", c, 0, 0, 0, 1.5, 1.5)
		check("r2 = Cut²", c, c.Elec.Cut, -1, 1, 0, 0)
		check("r2 just inside Cut²", c, math.Nextafter(c.Elec.Cut, 0), -1, 1, 0, 0)
		for _, si := range []float64{1, 1.5, 1.2, 0.7, 3} {
			for _, sj := range []float64{1, 1.5, 1.3, 0.9} {
				sigma := si + sj
				x, ok := squareRootOf(sigma * sigma * cbrt2)
				if !ok {
					continue
				}
				atCore++
				check("r2 = σ²·2^{1/3}", c, x, -1, -1, si, sj)
				check("r2 just inside σ²·2^{1/3}", c, math.Nextafter(x, 0), 0, 0, si, sj)
			}
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			check("non-finite position", c, x, -1, -1, 1.5, 1.5)
			check("non-finite position, uncharged", c, x, 0, 0, 1.5, 1.5)
		}
	}
	if atCore == 0 {
		t.Fatal("no radius pair put r2 exactly at σ²·2^{1/3}")
	}
}

func TestBindingSitesBitExact(t *testing.T) {
	rng := xrand.New(45)
	siteSets := [][]BindingSite{
		DefaultBindingSites(nil).Sites,
		{{Z: 0, Depth: 6, Width: 2.5}},
		{{Z: 0, Depth: -3, Width: 1}, {Z: 40, Depth: 1e-300, Width: 7}},
		{{Z: 0, Depth: 0, Width: 2}, {Z: 5, Depth: 2, Width: 0}},
		{{Z: math.NaN(), Depth: 1, Width: 2}, {Z: 0, Depth: 1, Width: 2}},
		{{Z: math.Inf(1), Depth: 1, Width: 2}, {Z: 0, Depth: math.NaN(), Width: 2}},
		{{Z: math.Inf(1), Depth: 1, Width: 2}, {Z: 0, Depth: 1, Width: 2}},
		{{Z: 0, Depth: 1, Width: 2}, {Z: math.Inf(-1), Depth: 1, Width: 2}},
		{{Z: 0, Depth: 1, Width: math.Inf(1)}, {Z: 1e300, Depth: 1, Width: 1}},
		{},
	}
	for _, sites := range siteSets {
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(30)
			pos := make([]vec.V, n)
			atoms := make([]int, n)
			for i := range pos {
				pos[i].Z = -200 + 400*rng.Float64()
				atoms[i] = i
			}
			// Now and then a bead lands on a skip threshold of the first
			// site (z - Z = ±x with x*x == 161·w², and its neighbours)
			// or off the map.
			if len(sites) > 0 {
				if x, ok := squareRootOf(bindingCut2 * sites[0].Width * sites[0].Width); ok {
					for _, dz := range []float64{x, -x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
						pos[rng.Intn(n)].Z = sites[0].Z + dz
					}
				}
			}
			for _, z := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e306, -1e306} {
				if rng.Intn(3) == 0 {
					pos[rng.Intn(n)].Z = z
				}
			}
			b := &BindingSites{Sites: sites, Atoms: atoms}
			requireSame(t, "binding sites", randomForces(rng, n),
				func(f []vec.V) float64 { return refBindingForces(b, pos, f) },
				func(f []vec.V) float64 { return b.AddForces(pos, f) })
		}
	}

	// e = 0 when the first bead is evaluated: its far-away term is tiny
	// but not a no-op against an energy of 0, nor is the force term
	// against f.Z = ±0 or a subnormal.
	b := &BindingSites{Sites: []BindingSite{{Z: 0, Depth: 6, Width: 2.5}}, Atoms: []int{0, 1}}
	pos := []vec.V{{Z: 33}, {Z: 0.5}}
	for _, fz := range oddFloats {
		f0 := []vec.V{{Z: fz}, {Z: 1}}
		requireSame(t, "e = 0 on the first bead", f0,
			func(f []vec.V) float64 { return refBindingForces(b, pos, f) },
			func(f []vec.V) float64 { return b.AddForces(pos, f) })
	}
}

func TestPoreFieldBitExact(t *testing.T) {
	rng := xrand.New(46)
	top := topology.New()
	for i := 0; i < 8; i++ {
		top.AddAtom(topology.Atom{Kind: topology.KindDNA, Mass: 325, Radius: 3})
	}
	for _, bulk := range []float64{45, 0, -1, 1e-200, math.Inf(1), math.NaN()} {
		pf := NewPoreField(top, topology.DefaultPore(), topology.DefaultMembrane())
		pf.BulkRadius = bulk
		for trial := 0; trial < 300; trial++ {
			pos := make([]vec.V, top.N())
			for i := range pos {
				r := 60 * rng.Float64()
				if k := float64(rng.Intn(9) - 4); bulk > 0 {
					switch rng.Intn(4) {
					case 0: // on the skip bound r² = B²·(1 - 2^-30), give or take a few ulps
						r = math.Sqrt(bulk*bulk*(1-0x1p-30)) * (1 + k*0x1p-52)
					case 1: // a hair either side of the cylinder itself
						r = bulk * (1 + k*0x1p-44)
					}
				}
				th := 2 * math.Pi * rng.Float64()
				z := -100 + 200*rng.Float64()
				if rng.Intn(4) == 0 {
					// In the pore, a hair either side of the wall-skip
					// bound, where cos(7θ) = -1 puts the wall itself.
					z = -50 + 85*rng.Float64()
					base := pf.Pore.AxialRadius(z)
					r = (base - 3 - pf.Pore.Corrugation) * (1 + float64(rng.Intn(9)-4)*0x1p-44)
					th = math.Pi / 7
				}
				pos[i] = vec.V{X: r * math.Cos(th), Y: r * math.Sin(th), Z: z}
				if rng.Intn(10) == 0 {
					pos[i].X = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200}[rng.Intn(4)]
				}
				if rng.Intn(10) == 0 {
					pos[i].Z = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
				}
			}
			requireSame(t, "pore field", randomForces(rng, top.N()),
				func(f []vec.V) float64 { return refPoreForces(pf, pos, f) },
				func(f []vec.V) float64 { return pf.AddForces(pos, f) })
		}
	}
}

func TestAnglesBitExact(t *testing.T) {
	rng := xrand.New(47)
	top := topology.New()
	for i := 0; i < 3; i++ {
		top.AddAtom(topology.Atom{Mass: 1})
	}
	_ = top.AddAngle(topology.Angle{I: 0, J: 1, K: 2, Theta0: 2, KTheta: 4})
	a := Angles{Top: top}
	for trial := 0; trial < 500; trial++ {
		pos := []vec.V{
			{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
			{},
			{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
		}
		switch trial % 5 {
		case 1: // collinear, same side: cos rounds to or past 1
			pos[2] = pos[0].Scale(1 + rng.Float64())
		case 2: // collinear, opposite sides
			pos[2] = pos[0].Scale(-1 - rng.Float64())
		case 3:
			pos[2].X = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		requireSame(t, "angles", randomForces(rng, 3),
			func(f []vec.V) float64 { return refAngleForces(a, pos, f) },
			func(f []vec.V) float64 { return a.AddForces(pos, f) })
	}
}
