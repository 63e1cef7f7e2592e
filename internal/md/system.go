package md

import (
	"fmt"

	"spice/internal/forcefield"
	"spice/internal/topology"
	"spice/internal/vec"
)

// TranslocationSpec assembles the paper's full system: an ssDNA strand
// threaded at the mouth of an alpha-hemolysin-like pore embedded in a
// membrane slab (Fig. 1 of the paper).
type TranslocationSpec struct {
	DNA      topology.DNAParams
	Pore     topology.PoreParams
	Membrane topology.MembraneParams
	Binding  []forcefield.BindingSite // nil = DefaultBindingSites
	NoWalls  bool                     // analytic pore only (faster)

	DT    float64
	Gamma float64
	Temp  float64
	Seed  uint64
	// PoreFriction multiplies the Langevin friction for beads inside
	// the pore lumen — the coarse-grained stand-in for the high
	// effective viscosity of single-file water in the barrel, which is
	// what makes the strand stretch as it is dragged through the
	// constriction (Fig. 3). 1 (or 0) disables the enhancement.
	PoreFriction float64
}

// DefaultTranslocation returns the spec used across the experiments:
// an n-nucleotide strand starting above the vestibule mouth.
func DefaultTranslocation(n int) TranslocationSpec {
	dna := topology.DefaultDNA(n)
	pore := topology.DefaultPore()
	dna.StartZ = pore.VestibuleLength + 4 // leading bead just above the mouth
	return TranslocationSpec{
		DNA:          dna,
		Pore:         pore,
		Membrane:     topology.DefaultMembrane(),
		NoWalls:      true,
		DT:           0.01,
		Gamma:        1,
		Temp:         300,
		Seed:         1,
		PoreFriction: 5,
	}
}

// TranslocationSystem is the assembled engine plus the indices needed by
// the SMD and analysis layers.
type TranslocationSystem struct {
	Engine *Engine
	// DNA holds the nucleotide bead indices; DNA[0] is the leading bead
	// (the paper steers the C3' atom of the leading nucleotide).
	DNA []int
	// Walls holds the fixed pore-wall bead indices (empty with NoWalls).
	Walls []int
	Spec  TranslocationSpec
}

// BuildTranslocation constructs the full system.
func BuildTranslocation(spec TranslocationSpec) (*TranslocationSystem, error) {
	top := topology.New()
	dnaIdx, dnaPos, err := topology.BuildDNA(top, spec.DNA)
	if err != nil {
		return nil, fmt.Errorf("md: building DNA: %w", err)
	}
	var wallIdx []int
	var wallPos []vec.V
	if !spec.NoWalls {
		p := spec.Pore
		wallIdx, wallPos = topology.BuildPoreWalls(top, p)
		// Explicit lipid head beads on the slab faces (Fig. 1's membrane)
		// when the spec asks for them; like the pore walls they are fixed
		// and appended after the DNA.
		if spec.Membrane.BeadSpacing > 0 {
			mIdx, mPos := topology.BuildMembrane(top, spec.Membrane, spec.Pore)
			wallIdx = append(wallIdx, mIdx...)
			wallPos = append(wallPos, mPos...)
		}
	}
	pos := make([]vec.V, 0, top.N())
	pos = append(pos, dnaPos...)
	pos = append(pos, wallPos...)

	pore := forcefield.NewPoreField(top, spec.Pore, spec.Membrane)
	binding := spec.Binding
	var bindTerm forcefield.Term
	if binding == nil {
		bindTerm = forcefield.DefaultBindingSites(dnaIdx)
	} else {
		bindTerm = &forcefield.BindingSites{Sites: binding, Atoms: dnaIdx}
	}

	pair := &forcefield.Combined{
		Core: forcefield.WCA{Epsilon: 0.3, MaxCut: 12},
		Elec: forcefield.DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 24},
	}

	var gammaFor func(i int, p vec.V) float64
	if spec.PoreFriction > 1 {
		base := spec.Gamma
		if base == 0 {
			base = 1
		}
		scaled := base * spec.PoreFriction
		pp := spec.Pore
		gammaFor = func(_ int, p vec.V) float64 {
			if p.Z > pp.VestibuleLength || p.Z < -pp.BarrelLength {
				return base
			}
			r := pp.AxialRadius(p.Z)
			if p.X*p.X+p.Y*p.Y > (r+2)*(r+2) {
				return base
			}
			return scaled
		}
	}

	eng, err := New(Config{
		Top:  top,
		Init: pos,
		Terms: []forcefield.Term{
			forcefield.Bonds{Top: top},
			forcefield.Angles{Top: top},
			pore,
			bindTerm,
		},
		Pair:     pair,
		DT:       spec.DT,
		Gamma:    spec.Gamma,
		Temp:     spec.Temp,
		Seed:     spec.Seed,
		GammaFor: gammaFor,
	})
	if err != nil {
		return nil, err
	}
	return &TranslocationSystem{Engine: eng, DNA: dnaIdx, Walls: wallIdx, Spec: spec}, nil
}

// StrandExtension returns the end-to-end distance of the DNA strand in Å —
// the observable behind Fig. 3's "the strand stretches as it nears the
// constriction".
func (ts *TranslocationSystem) StrandExtension() float64 {
	if len(ts.DNA) < 2 {
		return 0
	}
	st := ts.Engine.State()
	first := st.Pos[ts.DNA[0]]
	last := st.Pos[ts.DNA[len(ts.DNA)-1]]
	return vec.Dist(first, last)
}

// LeadZ returns the z coordinate of the leading bead.
func (ts *TranslocationSystem) LeadZ() float64 {
	return ts.Engine.State().Pos[ts.DNA[0]].Z
}
