// Command spice runs the SPICE SMD-JE pipeline: a (κ, v) priming sweep
// with error analysis (the paper's Fig. 4), parameter selection, and an
// optional production PMF at the chosen parameters. The pulls run in
// this process, or with -server on a spiced -serve control plane (see
// client.go); either way spice prints the same tables and writes
// byte-identical -out logs. With -imd it instead serves an interactive
// session a visualizer (cmd/imdview) can join.
//
// Examples:
//
//	spice -beads 8 -replicas 2 -distance 10
//	spice -production
//	spice -server :9556 -production -out logs/
//	spice -imd :9777 -frames 200
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/imd"
	"spice/internal/jarzynski"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spice: ")

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
		obsAddr    = flag.String("obs-addr", "", "serve /metrics (Prometheus text), /healthz and /debug/pprof/ on this address (e.g. 127.0.0.1:9090)")
	)
	flag.Parse()

	if *imdAddr != "" {
		if err := serveIMD(*imdAddr, *beads, *frames, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	est, err := jarzynski.ParseEstimator(*estimator)
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

	if *serverAddr != "" {
		// The system is the server's; only campaign specs and tenant
		// identity travel.
		cl := &controlplane.Client{Base: *serverAddr, RetryMax: *retryMax}
		spec := campaign.Spec{
			Kappas:     cfg.Kappas,
			Velocities: cfg.Velocities,
			Replicas:   cfg.Replicas,
			Distance:   cfg.Distance,
			Seed:       cfg.Seed,
		}
		tag := dist.CampaignTag{Tenant: *tenantFlag, Priority: *prioFlag, Name: *nameFlag}
		if acted, err := runAction(cl, spec, tag, *outDir); acted {
			if err != nil {
				log.Fatal(err)
			}
			return
		}
		cfg.Runner = servedRunner{cl: cl, tag: tag}
	} else {
		var reg *obs.Registry
		if *obsAddr != "" {
			reg = obs.NewRegistry()
			srv, err := obs.Serve(*obsAddr, reg, nil, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			fmt.Printf("observability: http://%s/metrics (also /healthz, /debug/pprof/)\n", srv.Addr())
		}
		cfg.Runner = localRunner(&cfg.System, cfg.Workers, reg)
	}

	fmt.Printf("SPICE priming sweep: %d κ × %d v, %g Å sub-trajectory, estimator %v\n\n",
		len(cfg.Kappas), len(cfg.Velocities), *distance, est)
	res, err := core.RunSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printSweep(res)

	if *outDir != "" {
		n, err := writeLogs(*outDir, res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d work logs to %s (analyze with: go run ./cmd/pmf %s/*.work)\n", n, *outDir, *outDir)
	}

	if *production {
		fmt.Printf("\nProduction PMF at κ=%g pN/Å, v=%g Å/ns\n", res.Best.KappaPaper, res.Best.VPaper)
		prod, err := core.RunProduction(core.ProductionConfig{
			System:    cfg.System,
			KappaPN:   res.Best.KappaPaper,
			VAns:      res.Best.VPaper,
			Replicas:  4 * *replicas,
			Distance:  *distance,
			Workers:   *workers,
			Seed:      *seed + 1,
			Estimator: jarzynski.Exponential,
			Runner:    cfg.Runner,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10s %12s %12s\n", "z (Å)", "Φ (kcal/mol)", "σ_stat")
		for i := range prod.Grid {
			fmt.Printf("%10.2f %12.4f %12.4f\n", prod.Grid[i], prod.PMF[i], prod.SigmaStat[i])
		}
	}
}

// localRunner runs the pulls in this process. With reg set, the engines
// it builds feed the md-layer series (spice_md_*) on reg.
func localRunner(sys *core.SystemConfig, workers int, reg *obs.Registry) *campaign.LocalRunner {
	var mdm *dist.EngineMetrics // nil without reg: Instrument is then a no-op
	if reg != nil {
		mdm = dist.NewEngineMetrics()
		reg.RegisterCollector(mdm.Collect)
	}
	return &campaign.LocalRunner{
		Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			eng, sel, err := sys.Build(seed)
			if err == nil {
				mdm.Instrument(eng)
			}
			return eng, sel, err
		},
		Workers: workers,
	}
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
