// Federated: the paper's batch phase end-to-end — the 72-simulation SMD-JE
// campaign is scheduled on the Fig. 5 US-UK federation model at production
// scale (makespan, CPU-hours, per-site distribution), the same sweep is
// executed for real at coarse-grained scale on a local worker pool, and
// then re-executed over the internal/dist coordinator/worker runtime
// (real TCP, leases, checkpoint streaming) to show the distributed run
// is bit-identical to the local one.
//
// Run with:
//
//	go run ./examples/federated
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"time"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/dist/statsfmt"
	"spice/internal/federation"
	"spice/internal/jarzynski"
	"spice/internal/obs"
)

func main() {
	log.SetFlags(0)

	// --- Paper-scale schedule on the federation model ---
	spec := campaign.PaperSpec()
	cm := campaign.PaperCostModel()
	fed := federation.SPICEFederation()
	if err := campaign.BackgroundLoad(fed, 0.4, 24*14, 1); err != nil {
		log.Fatal(err)
	}
	sched, err := campaign.Simulate(fed, spec, cm, true, federation.JobConstraint{NeedsCrossSite: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("production campaign on the federated US-UK grid (Fig. 5):\n")
	fmt.Printf("  %d jobs, %.0f CPU-hours, makespan %.2f days (paper: 72 jobs, ~75,000 CPU-h, < 1 week)\n",
		len(sched.Placements), sched.TotalCPUHours, sched.Days())
	machines := make([]string, 0, len(sched.PerSite))
	for m := range sched.PerSite {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	for _, m := range machines {
		fmt.Printf("    %-12s %2d jobs\n", m, sched.PerSite[m])
	}

	single, err := campaign.Simulate(campaign.SingleSite("local-512", 512), spec, cm, true, federation.JobConstraint{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  same campaign on one 512-proc machine: %.2f days (%.1fx slower)\n\n",
		single.Days(), single.MakespanHours/sched.MakespanHours)

	// --- The same sweep executed for real at CG scale ---
	fmt.Println("executing the sweep at coarse-grained scale on the local worker pool...")
	cfg := core.PaperSweep()
	cfg.System.Beads = 6
	cfg.Velocities = []float64{50, 100, 200, 400} // scaled up to keep the demo short
	cfg.RefVelocity = 25
	cfg.Distance = 6
	cfg.Replicas = 2
	res, err := core.RunSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%10s %10s %8s %10s %10s\n", "κ (pN/Å)", "v (Å/ns)", "samples", "σ_stat", "σ_sys")
	for _, p := range res.Points {
		fmt.Printf("%10g %10g %8d %10.4f %10.4f\n", p.KappaPaper, p.VPaper, p.Samples, p.SigmaStat, p.SigmaSys)
	}
	fmt.Printf("\noptimal parameters: κ=%g pN/Å, v=%g Å/ns\n", res.Best.KappaPaper, res.Best.VPaper)

	// --- The same sweep again, distributed over the dist runtime ---
	// A coordinator on loopback TCP plus three worker sessions stand in
	// for the grid sites above: jobs are leased out, heartbeats keep the
	// leases alive, and checkpoints stream back so a dead worker's job
	// resumes elsewhere. The merged result must match the local run
	// bit-for-bit. StateDir makes the campaign crash-safe: job state is
	// journaled so a coordinator killed mid-sweep can be restarted over
	// the same directory and resume instead of starting over. Each worker
	// carries a site identity mirroring the federation above, the "uk"
	// site is artificially throttled, and the coordinator's resilience
	// layer — per-site circuit breakers plus straggler hedging — is free
	// to re-execute crawling jobs speculatively on a healthier site;
	// determinism makes the duplicated work invisible in the output.
	fmt.Println("\nre-executing the sweep over the dist coordinator/worker runtime...")
	sysJSON, err := json.Marshal(cfg.System)
	if err != nil {
		log.Fatal(err)
	}
	stateDir, err := os.MkdirTemp("", "spice-federated-state-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// One validated Config, plus the obs layer: metrics generated from
	// the coordinator's snapshot and a live scheduling-event stream. In
	// production the registry is served with obs.Serve (spice -obs-addr);
	// here the demo scrapes it in-process after the run.
	reg := obs.NewRegistry()
	events := obs.NewEventLog(nil, 512)
	dcfg := dist.Defaults()
	dcfg.StateDir = stateDir
	dcfg.HedgeAfter = 200 * time.Millisecond
	dcfg.BeatInterval = 20 * time.Millisecond
	dcfg.CheckpointEvery = 1
	dcfg.Metrics = reg
	dcfg.Events = events
	co, err := dist.NewCoordinator(ln, sysJSON, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, site := range []string{"us-east", "us-west", "uk"} {
		wcfg := dcfg
		wcfg.Metrics, wcfg.Events = nil, nil
		if i == 2 {
			// The degraded-but-alive site: heartbeats on time, progress
			// at a crawl — the shape that triggers a speculative hedge.
			wcfg.Throttle = 40 * time.Millisecond
		}
		w, err := dist.NewWorker(fmt.Sprintf("%s-0", site), site, ln.Addr().String(), core.BuildFromJSON, wcfg)
		if err != nil {
			log.Fatal(err)
		}
		go w.Run(ctx)
	}
	distCfg := cfg
	distCfg.Runner = co
	distRes, err := core.RunSweep(distCfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := co.Close(); err != nil {
		log.Fatal(err)
	}
	identical := len(distRes.Grid) == len(res.Grid)
	for i := range res.Best.PMF {
		if !identical || distRes.Best.PMF[i] != res.Best.PMF[i] {
			identical = false
			break
		}
	}
	// One snapshot of the counters and per-site health feeds the console
	// tables, the Prometheus registry and any assertion a test wants to
	// make; a job's lease history is the event log's (below).
	statsfmt.Render(os.Stdout, co.StatsSnapshot(), "  ")
	fmt.Printf("  distributed PMF bit-identical to local run: %v\n", identical)

	// The same numbers as scraped from /metrics, plus the event stream's
	// view of the scheduling decisions the coordinator made along the way.
	fmt.Printf("\n  obs: %d events recorded", events.Seq())
	if n := events.Count("lease_granted"); n > 0 {
		fmt.Printf(" (%d lease grants", n)
		if h := events.Count("straggler_flagged"); h > 0 {
			fmt.Printf(", %d straggler(s) flagged", h)
		}
		fmt.Printf(")")
	}
	fmt.Println()

	// SMD-JE vs vanilla accounting (§II's 50-100x claim).
	vanilla := cm.VanillaCPUHours(10)
	factor := jarzynski.ReductionFactor(vanilla, sched.TotalCPUHours*5) // sweep+production+priming margin
	fmt.Printf("\nvanilla 10 µs estimate: %.1e CPU-hours; SMD-JE campaign bundle: %.1e → reduction ~%.0fx\n",
		vanilla, sched.TotalCPUHours*5, factor)
}
