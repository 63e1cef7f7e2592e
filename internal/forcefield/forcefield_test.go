package forcefield

import (
	"math"
	"testing"

	"spice/internal/neighbor"
	"spice/internal/topology"
	"spice/internal/vec"
	"spice/internal/xrand"
)

// numGrad computes -dE/dx numerically for term tm at atom i, component c.
func numGrad(tm Term, pos []vec.V, i int, h float64) vec.V {
	energyAt := func(p []vec.V) float64 {
		f := make([]vec.V, len(p))
		return tm.AddForces(p, f)
	}
	var g vec.V
	for c := 0; c < 3; c++ {
		p := append([]vec.V(nil), pos...)
		bump := func(delta float64) float64 {
			q := append([]vec.V(nil), p...)
			switch c {
			case 0:
				q[i].X += delta
			case 1:
				q[i].Y += delta
			case 2:
				q[i].Z += delta
			}
			return energyAt(q)
		}
		d := -(bump(h) - bump(-h)) / (2 * h)
		switch c {
		case 0:
			g.X = d
		case 1:
			g.Y = d
		case 2:
			g.Z = d
		}
	}
	return g
}

// checkForces compares analytic and numerical forces for every atom.
func checkForces(t *testing.T, tm Term, pos []vec.V, tol float64) {
	t.Helper()
	f := make([]vec.V, len(pos))
	tm.AddForces(pos, f)
	for i := range pos {
		num := numGrad(tm, pos, i, 1e-5)
		if vec.Dist(f[i], num) > tol*(1+num.Norm()) {
			t.Fatalf("%s: atom %d analytic %v vs numeric %v", tm.Name(), i, f[i], num)
		}
	}
}

func TestBondForceMatchesGradient(t *testing.T) {
	top := topology.New()
	a := top.AddAtom(topology.Atom{Mass: 1})
	b := top.AddAtom(topology.Atom{Mass: 1})
	_ = top.AddBond(topology.Bond{I: a, J: b, R0: 1.5, K: 10})
	rng := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		pos := []vec.V{
			{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
			{X: 1.5 + rng.NormFloat64()*0.3, Y: rng.NormFloat64() * 0.3, Z: rng.NormFloat64() * 0.3},
		}
		checkForces(t, Bonds{Top: top}, pos, 1e-5)
	}
}

func TestBondEnergyMinimumAtR0(t *testing.T) {
	top := topology.New()
	a := top.AddAtom(topology.Atom{Mass: 1})
	b := top.AddAtom(topology.Atom{Mass: 1})
	_ = top.AddBond(topology.Bond{I: a, J: b, R0: 2, K: 7})
	f := make([]vec.V, 2)
	e0 := Bonds{Top: top}.AddForces([]vec.V{{}, {X: 2}}, f)
	if e0 != 0 {
		t.Fatalf("energy at R0 = %v", e0)
	}
	if f[a].Norm() > 1e-12 || f[b].Norm() > 1e-12 {
		t.Fatal("nonzero force at equilibrium")
	}
	// E(r) = K (r-R0)²: at r=3, E = 7.
	f2 := make([]vec.V, 2)
	e1 := Bonds{Top: top}.AddForces([]vec.V{{}, {X: 3}}, f2)
	if math.Abs(e1-7) > 1e-12 {
		t.Fatalf("energy at r=3: %v, want 7", e1)
	}
}

func TestBondNewtonThirdLaw(t *testing.T) {
	top := topology.New()
	a := top.AddAtom(topology.Atom{Mass: 1})
	b := top.AddAtom(topology.Atom{Mass: 1})
	_ = top.AddBond(topology.Bond{I: a, J: b, R0: 1, K: 3})
	f := make([]vec.V, 2)
	Bonds{Top: top}.AddForces([]vec.V{{X: 0.2, Y: 0.1}, {X: 1.7, Z: -0.5}}, f)
	if f[a].Add(f[b]).Norm() > 1e-12 {
		t.Fatalf("momentum not conserved: %v + %v", f[a], f[b])
	}
}

func TestAngleForceMatchesGradient(t *testing.T) {
	top := topology.New()
	a := top.AddAtom(topology.Atom{Mass: 1})
	b := top.AddAtom(topology.Atom{Mass: 1})
	c := top.AddAtom(topology.Atom{Mass: 1})
	_ = top.AddAngle(topology.Angle{I: a, J: b, K: c, Theta0: 2.0, KTheta: 4})
	rng := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		pos := []vec.V{
			{X: 1 + 0.2*rng.NormFloat64(), Y: 0.3 * rng.NormFloat64(), Z: 0.3 * rng.NormFloat64()},
			{},
			{X: -0.5 + 0.2*rng.NormFloat64(), Y: 1 + 0.3*rng.NormFloat64(), Z: 0.3 * rng.NormFloat64()},
		}
		checkForces(t, Angles{Top: top}, pos, 1e-4)
	}
}

func TestAngleForcesSumToZero(t *testing.T) {
	top := topology.New()
	a := top.AddAtom(topology.Atom{Mass: 1})
	b := top.AddAtom(topology.Atom{Mass: 1})
	c := top.AddAtom(topology.Atom{Mass: 1})
	_ = top.AddAngle(topology.Angle{I: a, J: b, K: c, Theta0: math.Pi / 2, KTheta: 2})
	f := make([]vec.V, 3)
	Angles{Top: top}.AddForces([]vec.V{{X: 1}, {}, {X: 0.2, Y: 1.3, Z: -0.4}}, f)
	sum := f[0].Add(f[1]).Add(f[2])
	if sum.Norm() > 1e-10 {
		t.Fatalf("angle forces sum to %v", sum)
	}
}

// pairAt evaluates c on one pair at distance r (along x) through
// AddPairForces: the pair energy and g = F_x/r on the first atom.
func pairAt(c *Combined, r, qi, qj, si, sj float64) (e, g float64) {
	f := make([]vec.V, 2)
	e = c.AddPairForces([]neighbor.Pair{{I: 0, J: 1}}, []float64{qi, qj}, []float64{si, sj}, []vec.V{{X: r}, {}}, f)
	return e, f[0].X / r
}

func TestWCAProperties(t *testing.T) {
	w := &Combined{Core: WCA{Epsilon: 0.5, MaxCut: 10}}
	// Zero beyond the 2^{1/6}σ minimum.
	sigma := 2.0 // si+sj with si=sj=1
	rc := sigma * math.Pow(2, 1.0/6)
	e, g := pairAt(w, rc+0.01, 0, 0, 1, 1)
	if e != 0 || g != 0 {
		t.Fatalf("WCA nonzero beyond cutoff: e=%v g=%v", e, g)
	}
	// Repulsive (positive g) inside, with E continuous at the cutoff.
	e1, g1 := pairAt(w, rc-1e-6, 0, 0, 1, 1)
	if g1 <= 0 {
		t.Fatalf("WCA attractive inside: g=%v", g1)
	}
	if math.Abs(e1) > 1e-4 {
		t.Fatalf("WCA discontinuous at cutoff: e=%v", e1)
	}
	// Energy at r=σ is ε.
	eSigma, _ := pairAt(w, sigma, 0, 0, 1, 1)
	if math.Abs(eSigma-w.Core.Epsilon) > 1e-9 {
		t.Fatalf("WCA at σ = %v, want ε=%v", eSigma, w.Core.Epsilon)
	}
	// Monotone decreasing energy with r.
	prev := math.Inf(1)
	for r := 0.5; r < rc; r += 0.05 {
		e, _ := pairAt(w, r, 0, 0, 1, 1)
		if e > prev+1e-12 {
			t.Fatalf("WCA not monotone at r=%v", r)
		}
		prev = e
	}
}

func TestDebyeHuckelProperties(t *testing.T) {
	d := &Combined{Elec: DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24}}
	// Like charges repel: positive energy, positive g.
	e, g := pairAt(d, 5, -1, -1, 0, 0)
	if e <= 0 || g <= 0 {
		t.Fatalf("like charges: e=%v g=%v", e, g)
	}
	// Opposite charges attract.
	e2, g2 := pairAt(d, 5, 1, -1, 0, 0)
	if e2 >= 0 || g2 >= 0 {
		t.Fatalf("opposite charges: e=%v g=%v", e2, g2)
	}
	// Screening: energy decays faster than bare Coulomb.
	e5, _ := pairAt(d, 5, -1, -1, 0, 0)
	e10, _ := pairAt(d, 10, -1, -1, 0, 0)
	if e10/e5 >= 0.5 {
		t.Fatalf("insufficient screening: %v / %v", e10, e5)
	}
	// Zero beyond cutoff or with zero charge.
	if e, g := pairAt(d, 25, -1, -1, 0, 0); e != 0 || g != 0 {
		t.Fatal("nonzero beyond cutoff")
	}
	if e, g := pairAt(d, 5, 0, -1, 0, 0); e != 0 || g != 0 {
		t.Fatal("nonzero with zero charge")
	}
}

// pairTerm adapts Combined on two atoms to the Term interface so the
// numerical-gradient checker can drive it.
type pairTerm struct {
	pot    *Combined
	qi, qj float64
	si, sj float64
}

func (pairTerm) Name() string { return "pair" }

func (p pairTerm) AddForces(pos []vec.V, f []vec.V) float64 {
	return p.pot.AddPairForces([]neighbor.Pair{{I: 0, J: 1}}, []float64{p.qi, p.qj}, []float64{p.si, p.sj}, pos, f)
}

func TestPairForceMatchesGradient(t *testing.T) {
	pots := []struct {
		name string
		pt   pairTerm
	}{
		{"wca", pairTerm{pot: &Combined{Core: WCA{Epsilon: 0.3, MaxCut: 12}}, si: 1.5, sj: 1.2}},
		{"dh", pairTerm{pot: &Combined{Elec: DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24}}, qi: -1, qj: -1}},
		{"combined", pairTerm{pot: &Combined{
			Core: WCA{Epsilon: 0.3, MaxCut: 12},
			Elec: DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24},
		}, qi: -1, qj: -1, si: 1.5, sj: 1.2}},
	}
	rng := xrand.New(3)
	for _, p := range pots {
		for trial := 0; trial < 20; trial++ {
			r := 2.2 + 6*rng.Float64()
			dir := vec.V{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Unit()
			pos := []vec.V{vec.Zero, dir.Scale(r)}
			checkForces(t, p.pt, pos, 1e-4)
		}
	}
}

func TestCombinedIsSum(t *testing.T) {
	core := WCA{Epsilon: 0.3, MaxCut: 12}
	elec := DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24}
	c := &Combined{Core: core, Elec: elec}
	r := 3.0
	e1, g1 := pairAt(&Combined{Core: core}, r, -1, -1, 1.5, 1.5)
	e2, g2 := pairAt(&Combined{Elec: elec}, r, -1, -1, 1.5, 1.5)
	e, g := pairAt(c, r, -1, -1, 1.5, 1.5)
	if math.Abs(e-(e1+e2)) > 1e-12 || math.Abs(g-(g1+g2)) > 1e-12 {
		t.Fatal("Combined != sum of parts")
	}
	if c.Cutoff() != 24 {
		t.Fatalf("Combined cutoff = %v", c.Cutoff())
	}
}
