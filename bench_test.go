// Package spice's top-level benchmarks regenerate every figure and
// quantitative in-text claim of the paper's evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the series/rows the paper reports (shape, not
// absolute numbers — our substrate is a coarse-grained simulator, not the
// authors' 2005 testbed) and reports headline values as benchmark metrics.
// EXPERIMENTS.md records paper-vs-measured for each.
package spice

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/federation"
	"spice/internal/forcefield"
	"spice/internal/grid"
	"spice/internal/imd"
	"spice/internal/jarzynski"
	"spice/internal/md"
	"spice/internal/netsim"
	"spice/internal/smd"
	"spice/internal/steering"
	"spice/internal/ti"
	"spice/internal/topology"
	"spice/internal/trace"
	"spice/internal/umbrella"
	"spice/internal/units"
	"spice/internal/xrand"

	vecpkg "spice/internal/vec"
)

// ---------------------------------------------------------------------------
// Fig. 1 — the translocation system snapshot.

func BenchmarkFig1_SystemBuild(b *testing.B) {
	var atoms int
	for i := 0; i < b.N; i++ {
		spec := md.DefaultTranslocation(10)
		spec.NoWalls = false
		ts, err := md.BuildTranslocation(spec)
		if err != nil {
			b.Fatal(err)
		}
		atoms = ts.Engine.Topology().N()
	}
	b.ReportMetric(float64(atoms), "atoms")
	// Verify the Fig. 1b geometry: seven-fold symmetric pore.
	p := topology.DefaultPore()
	for k := 1; k < 7; k++ {
		if math.Abs(p.Radius(0, 0.1)-p.Radius(0, 0.1+2*math.Pi*float64(k)/7)) > 1e-9 {
			b.Fatal("pore is not seven-fold symmetric")
		}
	}
	b.Logf("Fig1: CG system with %d atoms; pore R(z): mouth %.1f Å → constriction %.1f Å → barrel %.1f Å",
		atoms, p.VestibuleRadius, p.ConstrictionRadius, p.BarrelRadius)
}

// ---------------------------------------------------------------------------
// Fig. 2 — RealityGrid steering architecture round trip.

// BenchmarkFig2_SteeringRoundTrip follows Fig. 2a: the simulation
// registers its steering address, the steerer finds it through the
// registry, dials it, and each op is one status round trip over TCP.
func BenchmarkFig2_SteeringRoundTrip(b *testing.B) {
	spec := md.DefaultTranslocation(6)
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	reg := steering.NewRegistry()
	_ = reg.Register(steering.ServiceInfo{Name: "sim", Kind: steering.KindSimulation, Addr: ln.Addr().String()})
	_ = reg.Register(steering.ServiceInfo{Name: "viz", Kind: steering.KindVisualizer})
	s := steering.NewSteered("sim", ts.Engine)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- steering.NewControlServer(s, reg).ServeContext(ctx, ln) }()
	done := make(chan int, 1)
	go func() { done <- s.Run(1 << 30) }()

	info, ok := reg.Lookup("sim")
	if !ok {
		b.Fatal("simulation not registered")
	}
	st, err := steering.Dial(info.Addr)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Status(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = st.Stop()
	<-done
	cancel()
	<-served
}

// ---------------------------------------------------------------------------
// Fig. 3 — strand stretches crossing the constriction.

// BenchmarkFig3_TranslocationStretch threads a strand from above the
// vestibule mouth through the pore and measures, for each backbone bond,
// its mean length while crossing the constriction versus while far above
// it (a paired, per-bond comparison — it cancels the position-along-chain
// tension gradient). Ratio > 1 is the Fig. 3 observation: "the strand of
// DNA stretches as it nears the constriction".
func BenchmarkFig3_TranslocationStretch(b *testing.B) {
	var ratio float64
	var nBonds int
	for i := 0; i < b.N; i++ {
		spec := md.DefaultTranslocation(10)
		spec.Seed = 7
		spec.DNA.StartZ = spec.Pore.VestibuleLength + 4
		spec.DNA.Backbone.Z = 1 // strand starts above the pore, lead enters first
		ts, err := md.BuildTranslocation(spec)
		if err != nil {
			b.Fatal(err)
		}
		ts.Engine.Run(1000)
		p := smd.PaperProtocol(200, 800, ts.DNA[:1])
		p.Distance = 70
		pl, err := smd.Attach(ts.Engine, p)
		if err != nil {
			b.Fatal(err)
		}
		dt := ts.Engine.Timestep()
		nb := len(ts.DNA) - 1
		atC := make([]float64, nb)
		atCn := make([]int, nb)
		far := make([]float64, nb)
		farn := make([]int, nb)
		step := 0
		for pl.Displacement() < p.Distance {
			ts.Engine.Step()
			pl.Advance(dt)
			if step++; step%20 != 0 {
				continue
			}
			st := ts.Engine.State()
			for j := 0; j < nb; j++ {
				a, c := st.Pos[ts.DNA[j]], st.Pos[ts.DNA[j+1]]
				mid := (a.Z + c.Z) / 2
				l := a.Sub(c).Norm()
				switch {
				case mid > -3 && mid < 3:
					atC[j] += l
					atCn[j]++
				case mid > 15:
					far[j] += l
					farn[j]++
				}
			}
		}
		rsum, rn := 0.0, 0
		for j := 1; j < nb; j++ { // skip the bond adjacent to the puller
			if atCn[j] > 3 && farn[j] > 3 {
				rsum += (atC[j] / float64(atCn[j])) / (far[j] / float64(farn[j]))
				rn++
			}
		}
		if rn == 0 {
			b.Fatal("no bonds sampled in both regions")
		}
		ratio, nBonds = rsum/float64(rn), rn
	}
	b.Logf("Fig3: per-bond paired stretch at the constriction: ratio %.4f over %d bonds", ratio, nBonds)
	b.ReportMetric(ratio, "stretch_ratio")
	if ratio <= 1.0 {
		b.Logf("WARNING: expected stretching at the constriction (ratio > 1), got %.4f", ratio)
	}
}

// ---------------------------------------------------------------------------
// Fig. 4 — the (κ, v) parameter optimization. The sweep is expensive, so
// it is computed once and shared by the four panels.

var (
	fig4Once   sync.Once
	fig4Result *core.SweepResult
	fig4Err    error
)

func fig4Sweep() (*core.SweepResult, error) {
	fig4Once.Do(func() {
		cfg := core.PaperSweep()
		cfg.System.Beads = 8
		cfg.System.DT = 0.02
		cfg.Kappas = []float64{10, 100, 1000}
		cfg.Velocities = []float64{12.5, 25, 50, 100}
		cfg.Replicas = 4
		cfg.Distance = 10
		cfg.RefVelocity = 3.125
		cfg.RefKappa = 300
		cfg.RefReplicas = 4
		cfg.Seed = 2005
		fig4Result, fig4Err = core.RunSweep(cfg)
	})
	return fig4Result, fig4Err
}

func fig4Panel(b *testing.B, kappa float64) {
	var res *core.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fig4Sweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	curves := res.CurvesForKappa(kappa)
	b.Logf("Fig4 κ=%g pN/Å: PMF vs displacement for v ∈ {12.5, 25, 50, 100} Å/ns", kappa)
	header := "      z(Å)"
	for _, c := range curves {
		header += fmt.Sprintf("   v=%-6g", c.VPaper)
	}
	b.Log(header)
	for g := 0; g < len(res.Grid); g += 4 {
		row := fmt.Sprintf("%10.2f", res.Grid[g])
		for _, c := range curves {
			row += fmt.Sprintf(" %9.3f", c.PMF[g])
		}
		b.Log(row)
	}
	for _, c := range curves {
		b.Logf("  v=%-6g σ_stat=%.3f σ_sys=%.3f (n=%d)", c.VPaper, c.SigmaStat, c.SigmaSys, c.Samples)
	}
	spread, _ := jarzynski.SpreadAcrossVelocities(curves)
	b.ReportMetric(spread, "v_spread_kcal")
}

func BenchmarkFig4a_PMFKappa10(b *testing.B)   { fig4Panel(b, 10) }
func BenchmarkFig4b_PMFKappa100(b *testing.B)  { fig4Panel(b, 100) }
func BenchmarkFig4c_PMFKappa1000(b *testing.B) { fig4Panel(b, 1000) }

func BenchmarkFig4d_PMFByKappa(b *testing.B) {
	var res *core.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fig4Sweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	curves := res.CurvesForVelocity(12.5)
	b.Logf("Fig4d v=12.5 Å/ns: PMF for κ ∈ {10, 100, 1000} pN/Å")
	for g := 0; g < len(res.Grid); g += 4 {
		row := fmt.Sprintf("%10.2f", res.Grid[g])
		for _, c := range curves {
			row += fmt.Sprintf(" %9.3f", c.PMF[g])
		}
		b.Log(row)
	}
	b.Logf("optimum selected: κ=%g pN/Å, v=%g Å/ns (paper: κ=100, v=12.5)",
		res.Best.KappaPaper, res.Best.VPaper)
	b.ReportMetric(res.Best.KappaPaper, "kappa_opt")
	b.ReportMetric(res.Best.VPaper, "v_opt")
}

// ---------------------------------------------------------------------------
// Fig. 5 — the federated US-UK grid.

func BenchmarkFig5_FederationBuild(b *testing.B) {
	var procs int
	for i := 0; i < b.N; i++ {
		fed := federation.SPICEFederation()
		procs = fed.TotalProcs()
		// Exercise the cross-site reservation primitive on the
		// TeraGrid sites.
		sites := fed.Sites()[:3]
		if _, err := federation.CoAllocate(sites, []int{256, 256, 256}, 4, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(procs), "total_procs")
	fed := federation.SPICEFederation()
	for _, g := range fed.Grids {
		for _, s := range g.Sites {
			b.Logf("Fig5: %-12s %-12s %4d procs hiddenIP=%-5v lightpath=%v",
				g.Name, s.Name, s.Machine.Procs, s.HiddenIP, s.Lightpath)
		}
	}
}

// ---------------------------------------------------------------------------
// T1 — §I cost model: 1 ns of 300k atoms = 24 h on 128 procs; 10 µs = 3e7
// CPU-hours. Also measures the CG engine's real throughput for scale.

func BenchmarkT1_CostModel(b *testing.B) {
	cm := campaign.PaperCostModel()
	spec := md.DefaultTranslocation(10)
	spec.NoWalls = false
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		b.Fatal(err)
	}
	ts.Engine.Run(10) // warm the neighbor list
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Engine.Step()
	}
	b.StopTimer()
	nsPerDay := ts.Engine.Timestep() * 1e-3 * float64(b.N) / b.Elapsed().Seconds() * 86400
	b.ReportMetric(nsPerDay, "CG_ns/day")
	b.Logf("T1: paper model — 1 ns of 300k atoms: %.1f h on 128 procs (%.0f CPU-h/ns)", cm.HoursFor(1, 128), cm.CPUHoursPerNs)
	b.Logf("T1: vanilla 10 µs translocation: %.2e CPU-hours (paper: 3×10⁷)", cm.VanillaCPUHours(10))
	b.Logf("T1: this CG substrate: %.1f ns/day single-core — the 300k-atom model is ~%.0ex costlier per step",
		nsPerDay, 300000.0/float64(ts.Engine.Topology().N()))
}

// ---------------------------------------------------------------------------
// T2 — §II: SMD-JE reduces the net requirement by 50-100x.

func BenchmarkT2_SMDJEReduction(b *testing.B) {
	cm := campaign.PaperCostModel()
	var factor float64
	for i := 0; i < b.N; i++ {
		vanilla := cm.VanillaCPUHours(10) // the 10 µs brute-force run
		spec := campaign.PaperSpec()
		sweepCost := 0.0
		for _, j := range spec.Jobs(cm) {
			sweepCost += j.CPUHours()
		}
		// Full SMD-JE budget: the priming/interactive phase (the paper's
		// IMD runs: order 256 procs × a few days), the 72-job parameter
		// sweep, and the production set at the optimum (the remaining
		// sub-trajectories along the full pore axis at v=12.5 with more
		// replicas — roughly 3x the priming sweep).
		interactive := 256.0 * 24 * 4
		production := 3 * sweepCost
		total := interactive + sweepCost + production
		factor = vanilla / total
		if i == 0 {
			b.Logf("T2: vanilla %.2e CPU-h; SMD-JE = interactive %.1e + sweep %.1e + production %.1e = %.2e CPU-h",
				vanilla, interactive, sweepCost, production, total)
			b.Logf("T2: reduction factor %.0fx (paper: 50-100x)", factor)
		}
	}
	b.ReportMetric(factor, "reduction_x")
	if factor < 50 || factor > 150 {
		b.Logf("WARNING: reduction factor %.0f outside the paper's 50-100x band", factor)
	}
}

// ---------------------------------------------------------------------------
// T3 — §III: 72 simulations, ~75,000 CPU-hours, < 1 week on the federation.

func BenchmarkT3_Campaign72(b *testing.B) {
	var fedDays, singleDays, cpuHours float64
	var jobs int
	for i := 0; i < b.N; i++ {
		spec := campaign.PaperSpec()
		cm := campaign.PaperCostModel()
		fed := federation.SPICEFederation()
		if err := campaign.BackgroundLoad(fed, 0.4, 24*14, 1); err != nil {
			b.Fatal(err)
		}
		fr, err := campaign.Simulate(fed, spec, cm, true, federation.JobConstraint{NeedsCrossSite: true})
		if err != nil {
			b.Fatal(err)
		}
		single := campaign.SingleSite("local-512", 512)
		if err := campaign.BackgroundLoad(single, 0.4, 24*14, 1); err != nil {
			b.Fatal(err)
		}
		sr, err := campaign.Simulate(single, spec, cm, true, federation.JobConstraint{})
		if err != nil {
			b.Fatal(err)
		}
		fedDays, singleDays = fr.Days(), sr.Days()
		cpuHours = fr.TotalCPUHours
		jobs = len(fr.Placements)
	}
	b.ReportMetric(fedDays, "federation_days")
	b.ReportMetric(singleDays, "single_site_days")
	b.ReportMetric(cpuHours, "cpu_hours")
	b.Logf("T3: %d jobs, %.0f CPU-hours; federation %.2f days (paper: <7), single 512p site %.2f days (%.1fx)",
		jobs, cpuHours, fedDays, singleDays, singleDays/fedDays)
}

// ---------------------------------------------------------------------------
// T4 — §II-III: IMD interactivity vs network QoS at production scale.

func BenchmarkT4_IMDQoS(b *testing.B) {
	var rows []string
	var congestedSlowdown, lightpathSlowdown float64
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, p := range netsim.Profiles() {
			m := imd.SimulateSession(imd.ModelConfig{
				ComputePerFrame: imd.PaperComputePerFrame(256, 20),
				RenderTime:      33 * time.Millisecond,
				NAtoms:          300000,
				Frames:          200,
				Profile:         p,
				Sync:            true,
				Seed:            4,
			})
			rows = append(rows, fmt.Sprintf("T4: %-12s stall %5.1f%%  slowdown %5.2fx  %.3f frames/s",
				p.Name, 100*m.StallFraction, m.Slowdown, m.FPS))
			switch p.Name {
			case "congested":
				congestedSlowdown = m.Slowdown
			case "lightpath":
				lightpathSlowdown = m.Slowdown
			}
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
	for _, p := range netsim.Profiles() {
		b.Logf("T4: %-12s sustainable TCP throughput (Mathis): %.1f Mb/s", p.Name, p.TCPThroughputMbps(1460))
	}
	b.Logf("T4: 256-proc interactive run stalls %.1fx worse on the general-purpose path than the lightpath",
		congestedSlowdown/lightpathSlowdown)
	b.ReportMetric(lightpathSlowdown, "lightpath_slowdown")
	b.ReportMetric(congestedSlowdown, "congested_slowdown")
}

// ---------------------------------------------------------------------------
// T5 — §V.C.1: hidden-IP sites, gateway relays and their bottleneck.

func BenchmarkT5_HiddenIPGateway(b *testing.B) {
	fed := federation.SPICEFederation()
	var psc, hpcx *federation.Site
	for _, s := range fed.Sites() {
		switch s.Name {
		case "PSC":
			psc = s
		case "HPCx":
			hpcx = s
		}
	}
	var agg float64
	for i := 0; i < b.N; i++ {
		// Direct cross-site traffic fails at pure hidden-IP sites.
		if hpcx.SupportsCrossSite() {
			b.Fatal("HPCx should not support cross-site jobs")
		}
		// PSC relays through gateways; aggregate bandwidth caps out.
		var ok bool
		agg, ok = psc.RelayBandwidth()
		if !ok {
			b.Fatal("PSC should be relayed")
		}
	}
	// Throughput of an N-stream MPICH-G2-style exchange through the
	// gateways: each direct stream could carry 1 Gb/s, the relay path
	// shares k gateways.
	const perStreamMbps = 1000.0
	b.Logf("T5: %-28s %10s %12s", "path", "streams", "agg Mb/s")
	for _, streams := range []int{1, 4, 16, 64} {
		direct := perStreamMbps * float64(streams)
		relayed := math.Min(direct, agg)
		b.Logf("T5: direct (visible IPs)        %10d %12.0f", streams, direct)
		b.Logf("T5: via %d gateways (qsocket)    %10d %12.0f%s", psc.Gateways, streams, relayed,
			map[bool]string{true: "  <- bottleneck", false: ""}[relayed < direct])
	}
	b.Logf("T5: UDP through the relay: unsupported (constraint excludes relayed sites)")
	udp := federation.JobConstraint{NeedsCrossSite: true, NeedsUDP: true}
	if udp.Eligible(psc) {
		b.Fatal("UDP constraint should exclude PSC")
	}
	b.ReportMetric(agg, "gateway_agg_mbps")
}

// ---------------------------------------------------------------------------
// T6 — §V.C.3/5: reservation workflows — manual vs web vs automated.

func BenchmarkT6_CoScheduling(b *testing.B) {
	const requests = 200
	var manualErrs, webErrs, autoErrs float64
	for i := 0; i < b.N; i++ {
		rng := xrand.New(2005)
		m := federation.CampaignReservationCost(federation.Manual, requests, rng)
		w := federation.CampaignReservationCost(federation.WebInterface, requests, rng)
		a := federation.CampaignReservationCost(federation.Automated, requests, rng)
		manualErrs = float64(m.Errors) / requests
		webErrs = float64(w.Errors) / requests
		autoErrs = float64(a.Errors) / requests
		if i == 0 {
			b.Logf("T6: %-10s %10s %10s %12s %14s", "workflow", "errors/req", "emails/req", "delay h/req", "interventions")
			for _, row := range []struct {
				name string
				o    federation.ReservationOutcome
			}{{"manual", m}, {"web", w}, {"automated", a}} {
				b.Logf("T6: %-10s %10.2f %10.1f %12.1f %14.2f", row.name,
					float64(row.o.Errors)/requests, float64(row.o.Emails)/requests,
					row.o.DelayHours/requests, float64(row.o.Interventions)/requests)
			}
			b.Logf("T6: paper anecdote: ~3 errors, ~12 emails for one manual request")
		}
	}
	b.ReportMetric(manualErrs, "manual_errors_per_req")
	b.ReportMetric(webErrs, "web_errors_per_req")
	b.ReportMetric(autoErrs, "auto_errors_per_req")
}

// ---------------------------------------------------------------------------
// T7 — §V.C.4: failure resilience; the security breach scenario.

func BenchmarkT7_FailureResilience(b *testing.B) {
	spec := campaign.PaperSpec()
	cm := campaign.PaperCostModel()
	scenario := func(outage bool, ukOnly bool) (float64, error) {
		fed := federation.SPICEFederation()
		if ukOnly {
			fed.Grids = fed.Grids[1:]
		}
		if err := campaign.BackgroundLoad(fed, 0.4, 24*14, 1); err != nil {
			return 0, err
		}
		if outage {
			fed.Apply([]federation.Outage{federation.SecurityBreach("Manchester", 24)})
		}
		r, err := campaign.Simulate(fed, spec, cm, true, federation.JobConstraint{NeedsCrossSite: true})
		if err != nil {
			return 0, err
		}
		return r.Days(), nil
	}
	var healthy, breached, ukBreached float64
	for i := 0; i < b.N; i++ {
		var err error
		if healthy, err = scenario(false, false); err != nil {
			b.Fatal(err)
		}
		if breached, err = scenario(true, false); err != nil {
			b.Fatal(err)
		}
		ukBreached, err = scenario(true, true)
		if err != nil {
			ukBreached = math.Inf(1) // campaign impossible on NGS alone
		}
	}
	// Job-level failures (hardware flakiness) on top of the healthy
	// loaded federation: 10% of jobs die mid-run and resubmit elsewhere.
	flakyFed := federation.SPICEFederation()
	if err := campaign.BackgroundLoad(flakyFed, 0.4, 24*14, 1); err != nil {
		b.Fatal(err)
	}
	flaky, err := campaign.SimulateWithFailures(flakyFed, spec, cm,
		campaign.FailureModel{PFail: 0.1, ExcludeFailedMachine: true, Seed: 2005},
		federation.JobConstraint{NeedsCrossSite: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("T7: healthy federation %.2f days; +breach %.2f days; UK NGS alone +breach %.2f days",
		healthy, breached, ukBreached)
	b.Logf("T7: +10%% job failures: %.2f days, %d failures, %.0f CPU-h wasted — absorbed by resubmission",
		flaky.Days(), flaky.Failures, flaky.WastedCPUHours)
	b.Logf("T7: redundancy across the federation absorbs the 3-week quarantine; a single grid cannot")
	b.ReportMetric(healthy, "healthy_days")
	b.ReportMetric(breached, "breach_days")
	b.ReportMetric(flaky.Days(), "flaky_days")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4).

// BenchmarkAblation_Estimators compares the JE estimators' bias on a
// synthetic Gaussian work ensemble where the true ΔF is known.
func BenchmarkAblation_Estimators(b *testing.B) {
	var biasExp, biasC1, biasC2 float64
	for i := 0; i < b.N; i++ {
		rng := xrand.New(9)
		const n, sd = 32, 1.0
		const mu = 3.0
		beta := 1.0 / 0.5961
		truth := mu - beta*sd*sd/2
		est := func(e jarzynski.Estimator) float64 {
			// Average bias over many independent n-sample ensembles.
			total := 0.0
			const trials = 300
			for t := 0; t < trials; t++ {
				ws := make([]float64, n)
				for k := range ws {
					ws[k] = mu + sd*rng.NormFloat64()
				}
				ens := &jarzynski.Ensemble{Temp: 300, Grid: []float64{0, 1}, Work: make([][]float64, n)}
				for k := range ws {
					ens.Work[k] = []float64{0, ws[k]}
				}
				pmf, err := ens.PMF(e)
				if err != nil {
					b.Fatal(err)
				}
				total += pmf[1] - truth
			}
			return total / trials
		}
		biasExp = est(jarzynski.Exponential)
		biasC1 = est(jarzynski.Cumulant1)
		biasC2 = est(jarzynski.Cumulant2)
	}
	b.Logf("Ablation/estimators (n=32 Gaussian work, true ΔF known): bias exp=%+.3f c1=%+.3f c2=%+.3f kcal/mol",
		biasExp, biasC1, biasC2)
	b.ReportMetric(biasExp, "bias_exponential")
	b.ReportMetric(biasC2, "bias_cumulant2")
}

// BenchmarkAblation_SubTrajectoryLength probes §V.A: does the PMF depend
// on how the 40 Å pull is segmented?
func BenchmarkAblation_SubTrajectoryLength(b *testing.B) {
	runSegmented := func(segLen float64) []float64 {
		total := 40.0
		nseg := int(total / segLen)
		var segs [][]float64
		var grids [][]float64
		var offsets []float64
		for s := 0; s < nseg; s++ {
			// Synthetic landscape: each segment's PMF is the true
			// profile slice plus noise that grows with segment length
			// (statistical error accumulates along a pull).
			rng := xrand.New(uint64(1000 + s))
			pts := int(segLen/0.5) + 1
			grid := make([]float64, pts)
			pmf := make([]float64, pts)
			for i := range grid {
				grid[i] = float64(i) * 0.5
				z := offsetsAt(s, segLen) + grid[i]
				pmf[i] = truePMF(z) - truePMF(offsetsAt(s, segLen)) +
					rng.NormFloat64()*0.02*grid[i] // error grows with distance from the segment start
			}
			segs = append(segs, pmf)
			grids = append(grids, grid)
			offsets = append(offsets, offsetsAt(s, segLen))
		}
		_, stitched, err := jarzynski.Stitch(segs, grids, offsets)
		if err != nil {
			b.Fatal(err)
		}
		return stitched
	}
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, segLen := range []float64{5, 10, 20, 40} {
			stitched := runSegmented(segLen)
			// Error against the true profile at the stitched points.
			rmsd := 0.0
			n := 0
			pos := 0.0
			for _, v := range stitched {
				d := v - truePMF(pos)
				rmsd += d * d
				n++
				pos += 0.5
				if pos > 40 {
					break
				}
			}
			rmsd = math.Sqrt(rmsd / float64(n))
			rows = append(rows, fmt.Sprintf("Ablation/subtrajectory: segment %4.0f Å -> stitched PMF RMSD %.3f kcal/mol", segLen, rmsd))
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
	b.Log("Ablation/subtrajectory: shorter segments bound the per-segment error growth (paper §V.A picks 10 Å)")
}

func offsetsAt(s int, segLen float64) float64 { return float64(s) * segLen }

func truePMF(z float64) float64 {
	// A smooth two-well profile over [0, 40].
	return 2*math.Sin(z/6) - 1.5*math.Exp(-(z-20)*(z-20)/18)
}

// BenchmarkAblation_PairThroughput steps a dense periodic melt — the
// nonbonded-dominated regime, about 10⁵ pairs — and reports the serial
// pair loop's throughput. The translocation systems list far fewer
// pairs; this is the figure a force-loop change should move.
func BenchmarkAblation_PairThroughput(b *testing.B) {
	eng, err := denseMelt(14)
	if err != nil {
		b.Fatal(err)
	}
	eng.Run(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	// Each step evaluates every listed pair once.
	st := eng.NeighborStats()
	b.ReportMetric(st.AvgPairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// denseMelt builds side³ charged beads on a cubic lattice in a periodic
// box at liquid-like density (~60 neighbors per bead within the
// electrostatic cutoff, ~10⁵ pairs), so the pair evaluation dominates the
// step.
func denseMelt(side int) (*md.Engine, error) {
	top := topology.New()
	spacing := 4.3
	box := spacing * float64(side)
	pos := make([]vecpkg.V, 0, side*side*side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				top.AddAtom(topology.Atom{Kind: topology.KindIon, Mass: 100, Charge: -0.2, Radius: 1.5})
				pos = append(pos, vecpkg.V{
					X: (float64(x) + 0.5) * spacing,
					Y: (float64(y) + 0.5) * spacing,
					Z: (float64(z) + 0.5) * spacing,
				})
			}
		}
	}
	return md.New(md.Config{
		Top:  top,
		Init: pos,
		Pair: forcefield.Combined{
			Core: forcefield.WCA{Epsilon: 0.3, MaxCut: 10},
			Elec: forcefield.DebyeHuckel{Lambda: 7.9, EpsR: 78.5, Cut: 10},
		},
		Box:  vecpkg.V{X: box, Y: box, Z: box},
		Seed: 9,
	})
}

// BenchmarkAblation_Backfill compares plain FCFS against conservative
// backfill on the production campaign.
func BenchmarkAblation_Backfill(b *testing.B) {
	spec := campaign.PaperSpec()
	cm := campaign.PaperCostModel()
	var fcfs, backfill float64
	for i := 0; i < b.N; i++ {
		for _, bf := range []bool{false, true} {
			fed := federation.SPICEFederation()
			if err := campaign.BackgroundLoad(fed, 0.4, 24*14, 1); err != nil {
				b.Fatal(err)
			}
			r, err := campaign.Simulate(fed, spec, cm, bf, federation.JobConstraint{NeedsCrossSite: true})
			if err != nil {
				b.Fatal(err)
			}
			if bf {
				backfill = r.Days()
			} else {
				fcfs = r.Days()
			}
		}
	}
	b.Logf("Ablation/backfill: FCFS %.2f days vs conservative backfill %.2f days", fcfs, backfill)
	b.ReportMetric(fcfs, "fcfs_days")
	b.ReportMetric(backfill, "backfill_days")
}

// BenchmarkAblation_NeighborList measures the cell list against the O(N²)
// reference on the wall-bead system (see also internal/neighbor's
// micro-benchmarks).
func BenchmarkAblation_NeighborList(b *testing.B) {
	spec := md.DefaultTranslocation(20)
	spec.NoWalls = false
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		b.Fatal(err)
	}
	n := ts.Engine.Topology().N()
	b.Run(fmt.Sprintf("cell-list/N=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ts.Engine.Step()
		}
		// Rebuild cadence and pair volume: a skin-tuning regression
		// (too-small skin -> rebuild every step; too-large -> pair
		// list bloat) shows up directly in these two metrics.
		st := ts.Engine.NeighborStats()
		b.ReportMetric(st.AvgInterval, "steps/rebuild")
		b.ReportMetric(st.AvgPairs, "pairs/rebuild")
	})
	b.Logf("Ablation/neighbor: see internal/neighbor BenchmarkCellList1000 vs BenchmarkBruteForce1000")
}

// ---------------------------------------------------------------------------
// Guard: the T2/T3 inputs stay pinned to the paper's numbers.

func TestPaperConstantsPinned(t *testing.T) {
	spec := campaign.PaperSpec()
	cm := campaign.PaperCostModel()
	jobs := spec.Jobs(cm)
	if len(jobs) != 72 {
		t.Fatalf("campaign is %d jobs, the paper ran 72", len(jobs))
	}
	total := 0.0
	for _, j := range jobs {
		total += j.CPUHours()
	}
	if total < 40000 || total > 120000 {
		t.Fatalf("campaign CPU-hours %.0f too far from the paper's ~75,000", total)
	}
	if grid.Makespan(nil) != 0 {
		t.Fatal("sanity")
	}
}

// ---------------------------------------------------------------------------
// Extension (paper §VI): thermodynamic integration on the same
// infrastructure — compared against SMD-JE at a similar step budget.

func BenchmarkExtension_TIvsSMDJE(b *testing.B) {
	wellBuild := func(_ int, seed uint64) (*md.Engine, []int, error) {
		top := topology.New()
		top.AddAtom(topology.Atom{Kind: topology.KindDNA, Mass: 325, Radius: 3})
		well := &forcefield.BindingSites{
			Sites: []forcefield.BindingSite{{Z: 5, Depth: 1.5, Width: 1.5}},
			Atoms: []int{0},
		}
		eng, err := md.New(md.Config{
			Top:   top,
			Init:  []vecpkg.V{{}},
			Terms: []forcefield.Term{well},
			Seed:  seed,
			DT:    0.02,
		})
		return eng, []int{0}, err
	}
	truth := func(z float64) float64 {
		return -1.5 * math.Exp(-(z-5)*(z-5)/(2*1.5*1.5))
	}
	// Offset-free RMSD: PMFs have an arbitrary zero, so compare after
	// removing the mean difference (fair to all three methods).
	rmsdVs := func(grid, pmf []float64) float64 {
		diff := make([]float64, len(grid))
		meanD := 0.0
		for i, z := range grid {
			diff[i] = pmf[i] - truth(z)
			meanD += diff[i]
		}
		meanD /= float64(len(grid))
		s := 0.0
		for _, d := range diff {
			d -= meanD
			s += d * d
		}
		return math.Sqrt(s / float64(len(grid)))
	}

	var tiRMSD, jeRMSD float64
	for i := 0; i < b.N; i++ {
		// TI: 21 windows × 14k steps = 294k steps.
		tiRes, err := ti.Run(ti.Config{
			Build: wellBuild, Kappa: units.SpringFromPaper(300), Axis: vecpkg.V{Z: 1},
			Start: 0, Distance: 10, Windows: 21,
			EquilSteps: 2000, SampleSteps: 12000, SampleEvery: 5,
			Workers: 4, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		tiRMSD = rmsdVs(tiRes.Grid, tiRes.PMF)

		// SMD-JE: 12 pulls at v=25 Å/ns over 10 Å = 12 × 20k = 240k steps.
		var logs []*trace.WorkLog
		for r := 0; r < 12; r++ {
			eng, atoms, err := wellBuild(0, uint64(900+r))
			if err != nil {
				b.Fatal(err)
			}
			p := smd.PaperProtocol(300, 25, atoms)
			p.Axis = vecpkg.V{Z: 1}
			pl, err := smd.Attach(eng, p)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pl.Run(eng, p, uint64(900+r))
			if err != nil {
				b.Fatal(err)
			}
			logs = append(logs, res.Log)
		}
		ens, err := jarzynski.NewEnsemble(300, logs)
		if err != nil {
			b.Fatal(err)
		}
		pmf, err := ens.PMF(jarzynski.Cumulant2)
		if err != nil {
			b.Fatal(err)
		}
		jeRMSD = rmsdVs(ens.Grid, pmf)
	}

	// Umbrella sampling + WHAM: 11 windows × 22k steps = 242k steps.
	var whamRMSD float64
	for i := 0; i < b.N; i++ {
		res, err := umbrella.Run(umbrella.Config{
			Build: wellBuild, Kappa: units.SpringFromPaper(50), Axis: vecpkg.V{Z: 1},
			Start: 0, Distance: 10, Windows: 11,
			EquilSteps: 2000, SampleSteps: 20000, SampleEvery: 5,
			Temp: 300, Workers: 4, Seed: 17,
		}, 30)
		if err != nil {
			b.Fatal(err)
		}
		var grid, pmf []float64
		for bn, x := range res.Grid {
			if !math.IsInf(res.PMF[bn], 1) {
				grid = append(grid, x)
				pmf = append(pmf, res.PMF[bn])
			}
		}
		whamRMSD = rmsdVs(grid, pmf)
	}
	b.Logf("Extension/free-energy methods, same infrastructure, similar budgets (~0.25M steps each):")
	b.Logf("  SMD-JE (cumulant2)   RMSD %.3f kcal/mol", jeRMSD)
	b.Logf("  TI (stiff-spring)    RMSD %.3f kcal/mol", tiRMSD)
	b.Logf("  Umbrella + WHAM      RMSD %.3f kcal/mol", whamRMSD)
	b.ReportMetric(tiRMSD, "ti_rmsd")
	b.ReportMetric(jeRMSD, "smdje_rmsd")
	b.ReportMetric(whamRMSD, "wham_rmsd")
}

// ---------------------------------------------------------------------------
// Extension (paper §V.C.6): co-scheduling lightpaths with compute — the
// coordination problem the paper leaves open, implemented as a
// circuit-calendar co-scheduler.

func BenchmarkExtension_LightpathCoScheduling(b *testing.B) {
	var ucl2ncsa float64
	var sessions int
	for i := 0; i < b.N; i++ {
		fed := federation.SPICEFederation()
		fab := federation.SPICEFabric()
		var ncsa *federation.Site
		for _, s := range fed.Sites() {
			if s.Name == "NCSA" {
				ncsa = s
			}
		}
		// A week of daily 4-hour interactive sessions, all needing the
		// UCL-NCSA circuit and 256 processors simultaneously.
		sessions = 0
		for d := 0; d < 7; d++ {
			for k := 0; k < 3; k++ {
				if _, err := federation.CoScheduleInteractive(fab, ncsa, "UCL", 256, 4, float64(d*24)); err != nil {
					b.Fatal(err)
				}
				sessions++
			}
		}
		link, _ := fab.Find("UCL", "NCSA")
		ucl2ncsa = link.CircuitUtilization(7 * 24)
	}
	b.Logf("Extension/lightpath: %d sessions co-scheduled; UCL-NCSA circuit utilization %.0f%% over the week",
		sessions, 100*ucl2ncsa)
	b.ReportMetric(ucl2ncsa, "circuit_utilization")
}
