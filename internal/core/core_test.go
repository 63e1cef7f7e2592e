package core

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"spice/internal/campaign"
	"spice/internal/jarzynski"
	"spice/internal/vec"
)

// quickSweep is a fast configuration for tests: small system, short
// pulls, high velocities.
func quickSweep() SweepConfig {
	cfg := PaperSweep()
	cfg.System.Beads = 4
	cfg.System.EquilSteps = 200
	cfg.Kappas = []float64{100, 1000}
	cfg.Velocities = []float64{200, 400}
	cfg.Replicas = 2
	cfg.Distance = 3
	cfg.Resamples = 50
	cfg.RefVelocity = 100
	cfg.RefReplicas = 2
	cfg.Seed = 11
	return cfg
}

func TestRunSweepValidation(t *testing.T) {
	cfg := quickSweep()
	cfg.Kappas = nil
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("empty sweep accepted")
	}
	cfg = quickSweep()
	cfg.Replicas = 1
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("single replica accepted")
	}
	cfg = quickSweep()
	cfg.Distance = 0
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("zero distance accepted")
	}
	cfg = quickSweep()
	cfg.Reference = nil
	cfg.RefVelocity = 0
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("missing reference config accepted")
	}
}

func TestRunSweepProducesAnalyzedPoints(t *testing.T) {
	cfg := quickSweep()
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if len(res.Grid) == 0 || len(res.Reference) != len(res.Grid) {
		t.Fatalf("grid/reference sizes: %d vs %d", len(res.Grid), len(res.Reference))
	}
	for _, p := range res.Points {
		if len(p.PMF) != len(res.Grid) {
			t.Fatalf("point %v has %d PMF values", p, len(p.PMF))
		}
		if p.SigmaStat <= 0 {
			t.Fatalf("point %v has zero statistical error", p)
		}
		if p.SigmaSys < 0 {
			t.Fatalf("negative systematic error")
		}
		if p.Samples < 2 {
			t.Fatalf("point %v has %d samples", p, p.Samples)
		}
		if p.PMF[0] != 0 {
			t.Fatal("PMF not anchored")
		}
		for _, v := range p.PMF {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite PMF value")
			}
		}
	}
	// Cost normalization gave faster velocities more samples.
	var n200, n400 int
	for _, p := range res.Points {
		if p.VPaper == 200 {
			n200 = p.Samples
		}
		if p.VPaper == 400 {
			n400 = p.Samples
		}
	}
	if n400 != 2*n200 {
		t.Fatalf("sample scaling: v=400 has %d, v=200 has %d", n400, n200)
	}
	// Best is one of the points.
	found := false
	for _, p := range res.Points {
		if p.KappaPaper == res.Best.KappaPaper && p.VPaper == res.Best.VPaper {
			found = true
		}
	}
	if !found {
		t.Fatal("best point not from the sweep")
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	a, err := RunSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		for g := range a.Points[i].PMF {
			if a.Points[i].PMF[g] != b.Points[i].PMF[g] {
				t.Fatal("sweep not reproducible")
			}
		}
	}
}

func TestCurveSelectors(t *testing.T) {
	res, err := RunSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	k100 := res.CurvesForKappa(100)
	if len(k100) != 2 {
		t.Fatalf("κ=100 curves = %d", len(k100))
	}
	for _, p := range k100 {
		if p.KappaPaper != 100 {
			t.Fatal("wrong κ in selection")
		}
	}
	v200 := res.CurvesForVelocity(200)
	if len(v200) != 2 {
		t.Fatalf("v=200 curves = %d", len(v200))
	}
	if len(res.CurvesForKappa(9999)) != 0 {
		t.Fatal("phantom curves")
	}
}

func TestExternalReferenceUsed(t *testing.T) {
	cfg := quickSweep()
	// Grid length for Distance=3 at SampleEvery 0.25 is 13.
	ref := make([]float64, 13)
	for i := range ref {
		ref[i] = float64(i)
	}
	cfg.Reference = ref
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if res.Reference[i] != ref[i] {
			t.Fatal("external reference not used")
		}
	}
	// A steep artificial reference should force large σ_sys everywhere.
	for _, p := range res.Points {
		if p.SigmaSys < 0.5 {
			t.Fatalf("σ_sys = %v vs artificial reference", p.SigmaSys)
		}
	}
}

func TestRunProduction(t *testing.T) {
	cfg := ProductionConfig{
		System:    SystemConfig{Beads: 3, EquilSteps: 100, DT: 0.01, Temp: 300},
		KappaPN:   100,
		VAns:      400,
		Replicas:  3,
		Distance:  3,
		Seed:      13,
		Estimator: jarzynski.Cumulant2,
	}
	res, err := RunProduction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PMF) != len(res.Grid) || len(res.SigmaStat) != len(res.Grid) {
		t.Fatal("result shape mismatch")
	}
	if res.TotalSteps <= 0 {
		t.Fatal("no steps accounted")
	}
	if res.PMF[0] != 0 {
		t.Fatal("production PMF not anchored")
	}
	cfg.Replicas = 1
	if _, err := RunProduction(cfg); err == nil {
		t.Fatal("single-replica production accepted")
	}
}

func TestDefaultSystemBuilds(t *testing.T) {
	sc := DefaultSystem()
	eng, atoms, err := sc.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 1 {
		t.Fatalf("steered atoms = %d (paper pulls one atom)", len(atoms))
	}
	if eng.State().Step != int64(sc.EquilSteps) {
		t.Fatalf("equilibration ran %d steps", eng.State().Step)
	}
	// The chain must extend upward from the start position.
	pos := eng.State().Pos
	if pos[atoms[0]].Z > pos[len(pos)-1].Z {
		t.Fatal("lead bead should be lowest")
	}
	bad := sc
	bad.Beads = 0
	if _, _, err := bad.Build(1); err == nil {
		t.Fatal("zero-bead system accepted")
	}
}

func TestSystemConfigValidate(t *testing.T) {
	ok := DefaultSystem()
	with := func(mut func(*SystemConfig)) SystemConfig {
		sc := ok
		mut(&sc)
		return sc
	}
	for _, tc := range []struct {
		name string
		sc   SystemConfig
		ok   bool
	}{
		{"default", ok, true},
		{"benchmark system", with(func(sc *SystemConfig) { sc.Beads, sc.EngineWorkers = 24, 1 }), true},
		{"zero optionals", SystemConfig{Beads: 1}, true},
		{"caps", with(func(sc *SystemConfig) { sc.Beads, sc.EquilSteps, sc.EngineWorkers = 1000, 1_000_000, 256 }), true},
		{"zero beads", with(func(sc *SystemConfig) { sc.Beads = 0 }), false},
		{"negative beads", with(func(sc *SystemConfig) { sc.Beads = -3 }), false},
		{"beads past cap", with(func(sc *SystemConfig) { sc.Beads = 1001 }), false},
		{"negative equilibration", with(func(sc *SystemConfig) { sc.EquilSteps = -1 }), false},
		{"equilibration past cap", with(func(sc *SystemConfig) { sc.EquilSteps = 1_000_001 }), false},
		{"negative engine workers", with(func(sc *SystemConfig) { sc.EngineWorkers = -1 }), false},
		{"engine workers past cap", with(func(sc *SystemConfig) { sc.EngineWorkers = 257 }), false},
		{"negative dt", with(func(sc *SystemConfig) { sc.DT = -0.01 }), false},
		{"nan dt", with(func(sc *SystemConfig) { sc.DT = math.NaN() }), false},
		{"infinite temp", with(func(sc *SystemConfig) { sc.Temp = math.Inf(1) }), false},
		{"negative temp", with(func(sc *SystemConfig) { sc.Temp = -300 }), false},
		{"nan friction", with(func(sc *SystemConfig) { sc.PoreFriction = math.NaN() }), false},
		{"negative friction", with(func(sc *SystemConfig) { sc.PoreFriction = -1 }), false},
		{"infinite start", with(func(sc *SystemConfig) { sc.StartZ = math.Inf(-1) }), false},
		{"negative start", with(func(sc *SystemConfig) { sc.StartZ = -40 }), true},
	} {
		err := tc.sc.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", tc.name, tc.sc, err, tc.ok)
		}
		if !tc.ok {
			if _, _, err := tc.sc.Build(1); err == nil {
				t.Errorf("%s: Build accepted a config Validate refuses", tc.name)
			}
		}
	}
	// The bytes a worker receives are checked before anything is built.
	if _, _, err := BuildFromJSON([]byte(`{"Beads":0}`), campaign.Combo{}, 1); err == nil {
		t.Error(`BuildFromJSON accepted {"Beads":0}`)
	}
}

// TestTrajectoryIndependentOfEngineWorkers pins that a served run and a
// local run of the same system compute the same trajectory whatever
// EngineWorkers says: an engine sums its forces in one fixed order. The
// 200-bead system lists well over a thousand nonbonded pairs, enough that
// any split of the pair loop would reorder the sums. It goes through
// BuildFromJSON, the path a worker builds from, so it keeps compiling
// once the field is gone from SystemConfig.
func TestTrajectoryIndependentOfEngineWorkers(t *testing.T) {
	run := func(workers int) []vec.V {
		sys := fmt.Sprintf(`{"Beads":200,"StartZ":5,"EquilSteps":200,"DT":0.01,"Temp":300,"PoreFriction":1,"EngineWorkers":%d}`, workers)
		eng, _, err := BuildFromJSON(json.RawMessage(sys), campaign.Combo{}, 19)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(500)
		return eng.State().Pos
	}
	one, four := run(1), run(4)
	differ := 0
	for i := range one {
		if one[i] != four[i] {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("EngineWorkers 1 vs 4: %d of %d positions differ after 700 steps", differ, len(one))
	}
}

// TestShippedSystemsAreOpenAndWallFree pins the premise the repo's one
// pull path rests on: every system spice, spiced and the benchmark run
// comes from SystemConfig.Build, which has no explicit walls (no fixed
// atoms); boundaries are always open, as the engine has no periodic box.
// Nothing in the tree shares work between replicas' static atoms,
// because there are none; a SystemConfig that grows walls should
// revisit that.
func TestShippedSystemsAreOpenAndWallFree(t *testing.T) {
	for name, sc := range map[string]SystemConfig{
		"DefaultSystem":       DefaultSystem(),
		"PaperSweep().System": PaperSweep().System,
	} {
		sc.EquilSteps = 0 // the layout is fixed at build; dynamics do not change it
		eng, _, err := sc.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if top := eng.Topology(); top.MobileCount() != top.N() {
			t.Errorf("%s: %d of %d atoms are fixed", name, top.N()-top.MobileCount(), top.N())
		}
	}
}

// FuzzBuildFromJSON feeds arbitrary bytes to the decoder a worker runs on
// the system payload its coordinator sends. Every input either fails to
// decode, is refused by Validate, or is a config Build accepts; accepted
// configs small enough to build quickly are built, and must build.
func FuzzBuildFromJSON(f *testing.F) {
	for _, seed := range []string{
		`{"Beads":8,"StartZ":5,"EquilSteps":1000,"DT":0.01,"Temp":300,"PoreFriction":1}`,
		`{"Beads":24,"StartZ":5,"EquilSteps":1000,"DT":0.01,"Temp":300,"PoreFriction":1,"EngineWorkers":1}`,
		`{"Beads":0}`, `{"Beads":3,"DT":-1}`, `{"Beads":2,"EquilSteps":5,"Temp":1e308}`,
		`{"Beads":1e3}`, `{"StartZ":"x"}`, `[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc SystemConfig
		if json.Unmarshal(data, &sc) != nil {
			if _, _, err := BuildFromJSON(data, campaign.Combo{}, 1); err == nil {
				t.Fatalf("undecodable payload %q built", data)
			}
			return
		}
		if sc.Validate() != nil || sc.Beads > 8 || sc.EquilSteps > 50 {
			return
		}
		if _, _, err := BuildFromJSON(data, campaign.Combo{}, 1); err != nil {
			t.Fatalf("valid config %+v did not build: %v", sc, err)
		}
	})
}
