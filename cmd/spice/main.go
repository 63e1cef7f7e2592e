// Command spice runs the SPICE SMD-JE pipeline: a (κ, v) priming sweep
// with error analysis (the paper's Fig. 4), parameter selection, and an
// optional production PMF at the chosen parameters. With -imd it instead
// serves an interactive session a visualizer (cmd/imdview) can join.
// With -coordinator it distributes the pulls over TCP to spiced worker
// daemons (plus -workers in-process ones), with bit-identical results.
//
// Examples:
//
//	spice -beads 8 -replicas 2 -distance 10
//	spice -production
//	spice -imd :9777 -frames 200
//	spice -coordinator :9555 -workers 2   # spiced daemons may join too
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/dist/statsfmt"
	"spice/internal/imd"
	"spice/internal/jarzynski"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spice: ")

	// The dist runtime knobs: each -coordinator flag is bound straight
	// onto a field of a Config seeded from dist.Defaults(). Flag
	// semantics ("0 disables") are the Config semantics and Defaults() is
	// the only place a default is written.
	dcfg := dist.Defaults()
	distFlags(flag.CommandLine, &dcfg)
	var (
		beads      = flag.Int("beads", 8, "ssDNA length in nucleotides")
		kappas     = flag.String("kappas", "10,100,1000", "spring constants, pN/Å (comma separated)")
		velocities = flag.String("velocities", "12.5,25,50,100", "pulling velocities, Å/ns")
		replicas   = flag.Int("replicas", 2, "replicas at the slowest velocity")
		distance   = flag.Float64("distance", 10, "sub-trajectory length, Å")
		estimator  = flag.String("estimator", "cumulant2", "PMF estimator: exponential|cumulant1|cumulant2")
		workers    = flag.Int("workers", 0, "parallel pull workers (0 = NumCPU)")
		seed       = flag.Uint64("seed", 2005, "campaign seed")
		production = flag.Bool("production", false, "run a production PMF at the sweep optimum")
		outDir     = flag.String("out", "", "write per-pull work logs into this directory (for cmd/pmf)")
		imdAddr    = flag.String("imd", "", "serve an interactive session on this address instead")
		frames     = flag.Int("frames", 100, "IMD frames to serve")
		coordAddr  = flag.String("coordinator", "", "distribute pulls: listen on this address for spiced workers (-workers then spawns in-process ones)")

		// Observability.
		obsAddr   = flag.String("obs-addr", "", "serve /metrics (Prometheus text), /healthz and /debug/pprof/ on this address (e.g. 127.0.0.1:9090)")
		obsEvents = flag.String("obs-events", "", "append the structured JSON-lines scheduling event log to this file (- for stderr)")
	)
	flag.Parse()

	if *imdAddr != "" {
		if err := serveIMD(*imdAddr, *beads, *frames, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	est, err := parseEstimator(*estimator)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.PaperSweep()
	cfg.System.Beads = *beads
	cfg.Kappas, err = parseFloats(*kappas)
	if err != nil {
		log.Fatalf("-kappas: %v", err)
	}
	cfg.Velocities, err = parseFloats(*velocities)
	if err != nil {
		log.Fatalf("-velocities: %v", err)
	}
	cfg.Replicas = *replicas
	cfg.Distance = *distance
	cfg.Estimator = est
	cfg.Workers = *workers
	cfg.Seed = *seed

	// Client mode: ship the spec to a control plane instead of running
	// it here. The system is the server's; only the campaign spec and
	// tenant identity travel.
	if *serverAddr != "" {
		spec := campaign.Spec{
			Kappas:     cfg.Kappas,
			Velocities: cfg.Velocities,
			Replicas:   cfg.Replicas,
			Distance:   cfg.Distance,
			Seed:       cfg.Seed,
		}
		if err := runClient(*serverAddr, spec, *outDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Observability plumbing: one registry + event log feed the debug
	// server, the coordinator (or the local runner) and the event file.
	var (
		reg    *obs.Registry
		events *obs.EventLog
	)
	if *obsAddr != "" || *obsEvents != "" {
		var closeEvents func()
		if events, closeEvents, err = obs.OpenEventLog(*obsEvents); err != nil {
			log.Fatal(err)
		}
		defer closeEvents()
		reg = obs.NewRegistry()
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, reg, events, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (also /healthz, /debug/pprof/, /debug/events)\n", srv.Addr())
	}

	dcfg.Metrics, dcfg.Events = reg, events

	var co *dist.Coordinator
	if *coordAddr != "" {
		var cancel context.CancelFunc
		co, cancel, err = startCoordinator(*coordAddr, &cfg.System, *workers, dcfg)
		if err != nil {
			log.Fatal(err)
		}
		defer cancel()
		defer co.Close()
		cfg.Runner = co
	} else {
		// Local runs go through dist.LocalRunner — the same execution
		// path and the same stats/metrics surface as a federated run,
		// just without the network.
		lr := &dist.LocalRunner{
			Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
				eng, sel, err := cfg.System.Build(seed)
				if err == nil {
					dist.InstrumentEngine(reg, eng)
				}
				return eng, sel, err
			},
			Workers: cfg.Workers,
			Events:  events,
		}
		if reg != nil {
			dist.RegisterMetrics(reg, lr)
		}
		cfg.Runner = lr
	}

	fmt.Printf("SPICE priming sweep: %d κ × %d v, %g Å sub-trajectory, estimator %v\n\n",
		len(cfg.Kappas), len(cfg.Velocities), *distance, est)
	res, err := core.RunSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printSweep(res)
	if co != nil {
		printDistStats(co)
	}

	if *outDir != "" {
		n, err := writeLogs(*outDir, res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d work logs to %s (analyze with: go run ./cmd/pmf %s/*.work)\n", n, *outDir, *outDir)
	}

	if *production {
		fmt.Printf("\nProduction PMF at κ=%g pN/Å, v=%g Å/ns\n", res.Best.KappaPaper, res.Best.VPaper)
		prodCfg := core.ProductionConfig{
			System:    cfg.System,
			KappaPN:   res.Best.KappaPaper,
			VAns:      res.Best.VPaper,
			Replicas:  4 * *replicas,
			Distance:  *distance,
			Workers:   *workers,
			Seed:      *seed + 1,
			Estimator: jarzynski.Exponential,
		}
		if co != nil {
			prodCfg.Runner = co
		}
		prod, err := core.RunProduction(prodCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10s %12s %12s\n", "z (Å)", "Φ (kcal/mol)", "σ_stat")
		for i := range prod.Grid {
			fmt.Printf("%10.2f %12.4f %12.4f\n", prod.Grid[i], prod.PMF[i], prod.SigmaStat[i])
		}
	}
}

// distFlags binds the dist knobs (all scoped to -coordinator) onto c.
func distFlags(fs *flag.FlagSet, c *dist.Config) {
	fs.StringVar(&c.StateDir, "state", c.StateDir, "with -coordinator: journal job state under this directory so a killed coordinator can be restarted with the same -state and resume the campaign")

	// Durable storage (scoped to -state).
	fs.Int64Var(&c.CompactBytes, "compact-bytes", c.CompactBytes, "compact the job journal (fold it into a snapshot and truncate the log) when it grows past this size, bounding disk footprint and replay time (0 disables)")
	fs.IntVar(&c.StorageRetries, "storage-retries", c.StorageRetries, "retries (short capped backoff) for a failed journal append before the coordinator enters the degraded storage state instead of crashing")

	// Federation resilience.
	fs.IntVar(&c.BreakerThreshold, "breaker-threshold", c.BreakerThreshold, "consecutive failure strikes (fails, lease expiries, disconnects) before a site's circuit breaker opens and it stops receiving work (0 disables)")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", c.BreakerCooldown, "quarantine before an open site is re-probed with a single job (0 = 2x the lease TTL)")
	fs.Float64Var(&c.HedgeFraction, "hedge-fraction", c.HedgeFraction, "hedge a job speculatively onto a second site when its checkpoint rate falls below this fraction of the fleet median; first finished attempt wins (0 disables)")
	fs.DurationVar(&c.HedgeStall, "hedge-stall", c.HedgeStall, "also hedge a job whose step counter has not advanced for this long while still heartbeating (0 disables)")
	fs.DurationVar(&c.IOTimeout, "io-timeout", c.IOTimeout, "read/write deadline armed before every I/O on every worker connection, so a half-open peer times out instead of wedging a reader (0 disables)")

	// Overload protection.
	fs.IntVar(&c.MaxInflight, "max-inflight", c.MaxInflight, "cap on worker requests processed at once; excess work polls are shed with an immediate jittered wait hint (0 disables)")
}

// startCoordinator opens the dist listener and spawns the in-process
// workers. The engine's intra-simulation parallelism is pinned so every
// process — local or remote — sums forces in the same chunk order;
// that, plus bit-exact checkpoints, is what makes distributed results
// byte-identical to local ones.
func startCoordinator(addr string, sys *core.SystemConfig, workers int, dcfg dist.Config) (*dist.Coordinator, context.CancelFunc, error) {
	if sys.EngineWorkers == 0 {
		sys.EngineWorkers = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	sysJSON, err := json.Marshal(sys)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	co, err := dist.NewCoordinator(ln, sysJSON, dcfg)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < workers; i++ {
		w, err := dist.NewWorker(fmt.Sprintf("local-%d", i), "", ln.Addr().String(), core.BuildFromJSON, dist.Defaults())
		if err != nil {
			cancel()
			_ = co.Close()
			return nil, nil, err
		}
		go w.Run(ctx)
	}
	fmt.Printf("coordinating pulls on %s (%d in-process workers; join with: spiced -coordinator %s)\n",
		ln.Addr(), workers, ln.Addr())
	return co, cancel, nil
}

// printDistStats renders the unified stats snapshot — the same
// numbers /metrics scrapes, via the shared statsfmt renderer.
func printDistStats(src dist.StatsSource) {
	fmt.Println()
	statsfmt.Render(os.Stdout, src.StatsSnapshot(), "dist: ")
}

func printSweep(res *core.SweepResult) {
	fmt.Printf("%10s %10s %8s %10s %10s %10s\n", "κ (pN/Å)", "v (Å/ns)", "samples", "σ_stat", "σ_sys", "combined")
	for _, p := range res.Points {
		fmt.Printf("%10g %10g %8d %10.4f %10.4f %10.4f\n",
			p.KappaPaper, p.VPaper, p.Samples, p.SigmaStat, p.SigmaSys, p.CombinedError())
	}
	fmt.Printf("\noptimal parameters: κ=%g pN/Å, v=%g Å/ns\n", res.Best.KappaPaper, res.Best.VPaper)
	fmt.Printf("\nPMF at the optimum (displacement of COM, Å → Φ, kcal/mol):\n")
	for i := range res.Grid {
		fmt.Printf("  %6.2f  %8.4f\n", res.Grid[i], res.Best.PMF[i])
	}
}

func serveIMD(addr string, beads, frames int, seed uint64) error {
	spec := md.DefaultTranslocation(beads)
	spec.Seed = seed
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("serving interactive session on %s (%d atoms, %d frames)\n", ln.Addr(), ts.Engine.Topology().N(), frames)
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	stats, err := imd.Serve(ts.Engine, conn, imd.SessionConfig{Stride: 20, Frames: frames, Sync: true})
	if err != nil {
		return err
	}
	fmt.Printf("session done: %d frames, %d forces, stall fraction %.1f%%, slowdown %.2fx\n",
		stats.Frames, stats.ForcesReceived, 100*stats.StallFraction(), stats.Slowdown())
	return nil
}

func writeLogs(dir string, res *core.SweepResult) (int, error) {
	return writeLogMap(dir, res.Logs)
}

// writeLogMap writes one .work file per replica, named by combo and
// replica index — the same layout whether the logs came from a local
// run or were fetched from a control plane, so outputs are directly
// byte-comparable.
func writeLogMap(dir string, logs map[campaign.Combo][]*trace.WorkLog) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for combo, wls := range logs {
		for r, wl := range wls {
			path := fmt.Sprintf("%s/%s-r%d.work", dir, combo, r)
			f, err := os.Create(path)
			if err != nil {
				return n, err
			}
			if err := trace.WriteWorkLog(f, wl); err != nil {
				f.Close()
				return n, err
			}
			if err := f.Close(); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseEstimator(s string) (jarzynski.Estimator, error) {
	switch s {
	case "exponential":
		return jarzynski.Exponential, nil
	case "cumulant1":
		return jarzynski.Cumulant1, nil
	case "cumulant2":
		return jarzynski.Cumulant2, nil
	default:
		return 0, fmt.Errorf("unknown estimator %q", s)
	}
}
