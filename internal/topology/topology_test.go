package topology

import (
	"math"
	"testing"

	"spice/internal/vec"
)

func TestAddAtomBondAngle(t *testing.T) {
	top := New()
	a := top.AddAtom(Atom{Mass: 1})
	b := top.AddAtom(Atom{Mass: 1})
	c := top.AddAtom(Atom{Mass: 1})
	if err := top.AddBond(Bond{I: a, J: b, R0: 1, K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := top.AddAngle(Angle{I: a, J: b, K: c, Theta0: math.Pi, KTheta: 1}); err != nil {
		t.Fatal(err)
	}
	if !top.Excluded(a, b) || !top.Excluded(b, a) {
		t.Fatal("1-2 exclusion missing")
	}
	if !top.Excluded(a, c) {
		t.Fatal("1-3 exclusion missing")
	}
	if top.Excluded(b, c) {
		// b-c share the angle but are 1-2 via no bond; only i-k excluded
		// by AddAngle. They are not bonded here, so not excluded.
		t.Fatal("b-c should not be excluded")
	}
}

func TestBondValidation(t *testing.T) {
	top := New()
	a := top.AddAtom(Atom{Mass: 1})
	if err := top.AddBond(Bond{I: a, J: a}); err == nil {
		t.Fatal("self bond accepted")
	}
	if err := top.AddBond(Bond{I: a, J: 99}); err == nil {
		t.Fatal("out-of-range bond accepted")
	}
	b := top.AddAtom(Atom{Mass: 1})
	if err := top.AddAngle(Angle{I: a, J: b, K: a}); err == nil {
		t.Fatal("degenerate angle accepted")
	}
}

func TestValidateDuplicateBond(t *testing.T) {
	top := New()
	a := top.AddAtom(Atom{Mass: 1})
	b := top.AddAtom(Atom{Mass: 1})
	_ = top.AddBond(Bond{I: a, J: b, R0: 1, K: 1})
	_ = top.AddBond(Bond{I: b, J: a, R0: 1, K: 1}) // same pair reversed
	if err := top.Validate(); err == nil {
		t.Fatal("duplicate bond not caught")
	}
}

func TestValidateMassAndKind(t *testing.T) {
	top := New()
	top.AddAtom(Atom{Mass: 0}) // mobile, zero mass
	if err := top.Validate(); err == nil {
		t.Fatal("zero-mass mobile atom not caught")
	}
	top2 := New()
	top2.AddAtom(Atom{Mass: 0, Fixed: true}) // fixed atoms may be massless
	if err := top2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDNA(t *testing.T) {
	top := New()
	p := DefaultDNA(10)
	idx, pos, err := BuildDNA(top, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 10 || len(pos) != 10 {
		t.Fatalf("got %d beads", len(idx))
	}
	if len(top.Bonds) != 9 {
		t.Fatalf("bonds = %d, want 9", len(top.Bonds))
	}
	if len(top.Angles) != 8 {
		t.Fatalf("angles = %d, want 8", len(top.Angles))
	}
	// Beads spaced at BondR0 along -z.
	for i := 1; i < 10; i++ {
		d := vec.Dist(pos[i], pos[i-1])
		if math.Abs(d-p.BondR0) > 1e-9 {
			t.Fatalf("spacing %d = %v", i, d)
		}
		if pos[i].Z >= pos[i-1].Z {
			t.Fatalf("chain should descend in z")
		}
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	// Charges and kinds.
	for _, id := range idx {
		a := top.Atoms[id]
		if a.Kind != KindDNA || a.Charge != -1 || a.Fixed {
			t.Fatalf("bad DNA atom: %+v", a)
		}
	}
}

func TestBuildDNAErrors(t *testing.T) {
	top := New()
	if _, _, err := BuildDNA(top, DNAParams{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	p := DefaultDNA(3)
	p.Backbone = vec.Zero
	if _, _, err := BuildDNA(top, p); err == nil {
		t.Fatal("zero backbone accepted")
	}
}

func TestPoreRadiusProfile(t *testing.T) {
	p := DefaultPore()
	// Constriction is the global minimum of the axisymmetric profile.
	rc := p.AxialRadius(0)
	if math.Abs(rc-p.ConstrictionRadius) > 1e-9 {
		t.Fatalf("constriction radius = %v", rc)
	}
	for _, z := range []float64{-40, -20, -5, 5, 15, 30} {
		if r := p.AxialRadius(z); r < rc-1e-9 {
			t.Fatalf("radius at z=%v is %v < constriction %v", z, r, rc)
		}
	}
	// Mouth approaches the vestibule radius; deep barrel the barrel radius.
	if r := p.AxialRadius(p.VestibuleLength); math.Abs(r-p.VestibuleRadius) > 1e-6 {
		t.Fatalf("mouth radius = %v", r)
	}
	if r := p.AxialRadius(-p.BarrelLength); math.Abs(r-p.BarrelRadius) > 1e-6 {
		t.Fatalf("barrel radius = %v", r)
	}
	// Outside the pore: infinite.
	if !math.IsInf(p.AxialRadius(p.VestibuleLength+1), 1) || !math.IsInf(p.AxialRadius(-p.BarrelLength-1), 1) {
		t.Fatal("radius should be +Inf outside the pore")
	}
}

func TestPoreSevenFoldSymmetry(t *testing.T) {
	p := DefaultPore()
	// R(z, θ) must be invariant under θ -> θ + 2π/7 (Fig. 1b).
	for _, z := range []float64{-30, 0, 10} {
		for k := 1; k < 7; k++ {
			base := p.Radius(z, 0.3)
			rot := p.Radius(z, 0.3+2*math.Pi*float64(k)/7)
			if math.Abs(base-rot) > 1e-9 {
				t.Fatalf("seven-fold symmetry broken at z=%v k=%d: %v vs %v", z, k, base, rot)
			}
		}
	}
	// Corrugation actually modulates the radius at other angles.
	if p.Radius(0, 0) == p.Radius(0, math.Pi/7) {
		t.Fatal("corrugation has no effect")
	}
}

func TestBuildPoreWalls(t *testing.T) {
	top := New()
	p := DefaultPore()
	idx, pos := BuildPoreWalls(top, p)
	if len(idx) == 0 {
		t.Fatal("no wall beads built")
	}
	if len(idx) != len(pos) {
		t.Fatal("index/position mismatch")
	}
	for k, id := range idx {
		a := top.Atoms[id]
		if !a.Fixed || a.Kind != KindWall {
			t.Fatalf("wall bead %d not fixed/wall: %+v", id, a)
		}
		// Beads sit at or slightly outside the inner surface.
		pz := pos[k]
		r := math.Hypot(pz.X, pz.Y)
		inner := p.Radius(pz.Z, math.Atan2(pz.Y, pz.X))
		if r < inner-1e-6 {
			t.Fatalf("wall bead %d inside the lumen: r=%v inner=%v", id, r, inner)
		}
	}
	// No walls with spacing 0.
	top2 := New()
	p.WallBeadSpacing = 0
	if idx2, _ := BuildPoreWalls(top2, p); idx2 != nil {
		t.Fatal("expected no beads with zero spacing")
	}
}

func TestMembrane(t *testing.T) {
	m := DefaultMembrane()
	if !m.Contains((m.ZMin + m.ZMax) / 2) {
		t.Fatal("midpoint not contained")
	}
	if m.Contains(m.ZMax+1) || m.Contains(m.ZMin-1) {
		t.Fatal("outside points contained")
	}
}

func TestBuildMembraneBeads(t *testing.T) {
	top := New()
	m := DefaultMembrane()
	m.BeadSpacing = 8
	pore := DefaultPore()
	idx, pos := BuildMembrane(top, m, pore)
	if len(idx) == 0 {
		t.Fatal("no membrane beads")
	}
	for k := range idx {
		p := pos[k]
		if p.Z != m.ZMin && p.Z != m.ZMax {
			t.Fatalf("membrane bead off-face at z=%v", p.Z)
		}
		// The pore mouth must stay clear.
		rp := pore.AxialRadius(p.Z)
		if !math.IsInf(rp, 1) && math.Hypot(p.X, p.Y) < rp {
			t.Fatalf("membrane bead blocks the pore at %v", p)
		}
	}
}

func TestAtomsOfKindAndMobileCount(t *testing.T) {
	top := New()
	top.AddAtom(Atom{Kind: KindDNA, Mass: 1})
	top.AddAtom(Atom{Kind: KindWall, Mass: 1, Fixed: true})
	top.AddAtom(Atom{Kind: KindDNA, Mass: 1})
	if top.Atoms[0].Kind != KindDNA || top.Atoms[1].Kind != KindWall || top.Atoms[2].Kind != KindDNA {
		t.Fatalf("atom kinds = %v %v %v", top.Atoms[0].Kind, top.Atoms[1].Kind, top.Atoms[2].Kind)
	}
	if top.MobileCount() != 2 {
		t.Fatalf("MobileCount = %d", top.MobileCount())
	}
	if KindDNA.String() != "dna" || KindWall.String() != "wall" {
		t.Fatal("Kind string labels wrong")
	}
}
