package campaign

import (
	"errors"
	"math"
	"testing"

	"spice/internal/federation"
	"spice/internal/jarzynski"
	"spice/internal/md"
)

func TestPaperCostModel(t *testing.T) {
	cm := PaperCostModel()
	// §I: 1 ns on 128 procs takes 24 h.
	if got := cm.HoursFor(1, 128); math.Abs(got-24) > 1e-9 {
		t.Fatalf("1 ns on 128 procs = %v h, want ~24", got)
	}
	// 256 procs halves it.
	if got := cm.HoursFor(1, 256); math.Abs(got-12) > 1e-9 {
		t.Fatalf("256-proc hours = %v", got)
	}
	// §I: 10 µs of vanilla MD is ~3×10⁷ CPU-hours (3.072e7 unrounded).
	if got := cm.VanillaCPUHours(10); math.Abs(got-3.072e7) > 1 {
		t.Fatalf("vanilla 10 µs = %v CPU-h", got)
	}
	if cm.HoursFor(1, 0) != cm.HoursFor(1, 128) {
		t.Fatal("default procs should be 128")
	}
}

func TestPaperSpecIs72Jobs(t *testing.T) {
	spec := PaperSpec()
	jobs := spec.Jobs(PaperCostModel())
	if len(jobs) != 72 {
		t.Fatalf("paper campaign = %d jobs, want 72", len(jobs))
	}
	// Total CPU-hours should land near the paper's ~75,000.
	total := 0.0
	for _, j := range jobs {
		total += j.CPUHours()
	}
	if total < 40000 || total > 120000 {
		t.Fatalf("campaign = %v CPU-h, want order 75,000", total)
	}
	// Slower pulls simulate more physical time → longer jobs.
	byCombo := make(map[string]float64)
	for _, j := range jobs {
		byCombo[j.Tags["velocity"]] = j.Hours
	}
	if byCombo["12.5"] <= byCombo["100"] {
		t.Fatalf("v=12.5 job (%v h) should outlast v=100 job (%v h)", byCombo["12.5"], byCombo["100"])
	}
}

func TestSamplesForCostNormalization(t *testing.T) {
	spec := Spec{
		Kappas:     []float64{100},
		Velocities: []float64{12.5, 25, 50, 100},
		Replicas:   2,
		Distance:   10,
	}
	// v=12.5 → 2; v=100 → 16 (8× cheaper per sample).
	if n := spec.SamplesFor(Combo{100, 12.5}); n != 2 {
		t.Fatalf("v=12.5 samples = %d", n)
	}
	if n := spec.SamplesFor(Combo{100, 100}); n != 16 {
		t.Fatalf("v=100 samples = %d", n)
	}
	spec.EqualSamples = true
	if n := spec.SamplesFor(Combo{100, 100}); n != 2 {
		t.Fatalf("equal-samples mode = %d", n)
	}
}

func TestCombosDeterministicOrder(t *testing.T) {
	spec := PaperSpec()
	a := spec.Combos()
	b := spec.Combos()
	if len(a) != 12 {
		t.Fatalf("combos = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("combo order not deterministic")
		}
	}
}

func TestSimulateCampaignFederationVsSingleSite(t *testing.T) {
	spec := PaperSpec()
	cm := PaperCostModel()
	fedResult, err := Simulate(federation.SPICEFederation(), spec, cm, true, federation.JobConstraint{NeedsCrossSite: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Simulate(SingleSite("local", 512), spec, cm, true, federation.JobConstraint{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "72 parallel MD simulations in under a week" on the
	// federation; a single 512-proc machine takes several times longer.
	if fedResult.Days() >= 7 {
		t.Fatalf("federation makespan = %.1f days, want < 7", fedResult.Days())
	}
	if single.MakespanHours <= fedResult.MakespanHours*1.5 {
		t.Fatalf("single site (%.0f h) should be much slower than federation (%.0f h)",
			single.MakespanHours, fedResult.MakespanHours)
	}
	// ~75k CPU-hours either way (same work).
	if math.Abs(fedResult.TotalCPUHours-single.TotalCPUHours) > 1 {
		t.Fatal("CPU-hours should not depend on scheduling")
	}
	// The federation actually used multiple sites.
	if len(fedResult.PerSite) < 3 {
		t.Fatalf("federation used %d machines", len(fedResult.PerSite))
	}
}

func TestBackgroundLoadDelaysCampaign(t *testing.T) {
	spec := PaperSpec()
	cm := PaperCostModel()
	idle, err := Simulate(federation.SPICEFederation(), spec, cm, true, federation.JobConstraint{NeedsCrossSite: true})
	if err != nil {
		t.Fatal(err)
	}
	loaded := federation.SPICEFederation()
	if err := BackgroundLoad(loaded, 0.5, 24*7, 1); err != nil {
		t.Fatal(err)
	}
	busy, err := Simulate(loaded, spec, cm, true, federation.JobConstraint{NeedsCrossSite: true})
	if err != nil {
		t.Fatal(err)
	}
	if busy.MakespanHours <= idle.MakespanHours {
		t.Fatalf("background load should delay the campaign: %v vs %v", busy.MakespanHours, idle.MakespanHours)
	}
	if err := BackgroundLoad(loaded, 1.5, 24, 1); err == nil {
		t.Fatal("load fraction > 1 accepted")
	}
}

func TestCompareScenarios(t *testing.T) {
	spec := PaperSpec()
	cm := PaperCostModel()
	feds := map[string]*federation.Federation{
		"federation":  federation.SPICEFederation(),
		"single-site": SingleSite("local", 512),
	}
	results, labels, err := CompareScenarios(feds, spec, cm, federation.JobConstraint{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(labels) != 2 {
		t.Fatalf("results = %d labels = %v", len(results), labels)
	}
	if labels[0] != "federation" || labels[1] != "single-site" {
		t.Fatalf("labels not sorted: %v", labels)
	}
}

// smallBuild returns a Build function for a tiny single-bead landscape so
// local campaign tests run in milliseconds.
func smallBuild(c Combo, seed uint64) (*md.Engine, []int, error) {
	spec := md.DefaultTranslocation(3)
	spec.Seed = seed
	spec.DT = 0.02
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		return nil, nil, err
	}
	return ts.Engine, ts.DNA[:1], nil
}

func TestLocalRunnerExecutesSweep(t *testing.T) {
	spec := Spec{
		Kappas:     []float64{100, 1000},
		Velocities: []float64{400, 800},
		Replicas:   2,
		Distance:   4,
		Seed:       7,
	}
	lr := &LocalRunner{Build: smallBuild, Workers: 4}
	logs, err := lr.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 4 {
		t.Fatalf("combos = %d", len(logs))
	}
	// Cost normalization: v=800 gets twice the replicas of v=400.
	if n := len(logs[Combo{100, 400}]); n != 2 {
		t.Fatalf("v=400 replicas = %d", n)
	}
	if n := len(logs[Combo{100, 800}]); n != 4 {
		t.Fatalf("v=800 replicas = %d", n)
	}
	// Logs are analyzable.
	e, err := jarzynski.NewEnsemble(300, logs[Combo{100, 800}])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PMF(jarzynski.Cumulant2); err != nil {
		t.Fatal(err)
	}
}

func TestLocalRunnerDeterministic(t *testing.T) {
	spec := Spec{
		Kappas:     []float64{100},
		Velocities: []float64{800},
		Replicas:   2,
		Distance:   3,
		Seed:       9,
	}
	run := func(workers int) []float64 {
		lr := &LocalRunner{Build: smallBuild, Workers: workers}
		logs, err := lr.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var final []float64
		for _, wl := range logs[Combo{100, 800}] {
			final = append(final, wl.Samples[len(wl.Samples)-1].Work)
		}
		return final
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatal("replica counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker count changed results: %v vs %v", a, b)
		}
	}
}

// TestLocalRunnerBitIdenticalAcrossWorkerCounts is the determinism
// regression the dist runtime's merge guarantee is anchored on: every
// work sample of every replica, and the PMF derived from them, must be
// bit-identical no matter how many workers executed the sweep.
func TestLocalRunnerBitIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := Spec{
		Kappas:     []float64{100, 1000},
		Velocities: []float64{800},
		Replicas:   2,
		Distance:   3,
		Seed:       13,
	}
	combo := Combo{100, 800}
	type snapshot struct {
		works map[Combo][][]float64
		pmf   []float64
	}
	run := func(workers int) snapshot {
		lr := &LocalRunner{Build: smallBuild, Workers: workers}
		logs, err := lr.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := snapshot{works: make(map[Combo][][]float64)}
		for c, wls := range logs {
			for _, wl := range wls {
				ws := make([]float64, len(wl.Samples))
				for i, smp := range wl.Samples {
					ws[i] = smp.Work
				}
				s.works[c] = append(s.works[c], ws)
			}
		}
		e, err := jarzynski.NewEnsemble(300, logs[combo])
		if err != nil {
			t.Fatal(err)
		}
		s.pmf, err = e.PMF(jarzynski.Cumulant2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := run(1)
	for _, workers := range []int{2, 7} {
		got := run(workers)
		for c, reps := range base.works {
			if len(got.works[c]) != len(reps) {
				t.Fatalf("workers=%d: combo %s has %d replicas, want %d", workers, c, len(got.works[c]), len(reps))
			}
			for r := range reps {
				for i := range reps[r] {
					if got.works[c][r][i] != reps[r][i] {
						t.Fatalf("workers=%d: combo %s replica %d sample %d work %v != %v",
							workers, c, r, i, got.works[c][r][i], reps[r][i])
					}
				}
			}
		}
		for i := range base.pmf {
			if got.pmf[i] != base.pmf[i] {
				t.Fatalf("workers=%d: PMF[%d] = %v, want %v (bit-identical)", workers, i, got.pmf[i], base.pmf[i])
			}
		}
	}
}

func TestLocalRunnerRequiresBuild(t *testing.T) {
	lr := &LocalRunner{}
	if _, err := lr.Run(PaperSpec()); err == nil {
		t.Fatal("nil Build accepted")
	}
}

// TestLocalRunnerErrors: a failing pull fails the run with the first
// failing task in task order named by combo and replica under the
// campaign prefix, and errors.Is still finds the cause.
func TestLocalRunnerErrors(t *testing.T) {
	boom := errors.New("no such pore")
	lr := &LocalRunner{Workers: 2, Build: func(c Combo, seed uint64) (*md.Engine, []int, error) {
		if c.KappaPN == 1000 {
			return nil, nil, boom
		}
		return smallBuild(c, seed)
	}}
	spec := Spec{Kappas: []float64{100, 1000}, Velocities: []float64{800}, Replicas: 2, Distance: 3, Seed: 7}
	_, err := lr.Run(spec)
	if !errors.Is(err, boom) || err.Error() != "campaign: pull k1000-v800 replica 0: no such pore" {
		t.Fatalf("Run with a failing build: %v", err)
	}
}

func TestComboString(t *testing.T) {
	if (Combo{100, 12.5}).String() != "k100-v12.5" {
		t.Fatalf("combo label = %q", Combo{100, 12.5})
	}
}
