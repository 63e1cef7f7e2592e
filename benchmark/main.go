// Command benchmark measures the path a SPICE user waits on: a campaign
// submitted over HTTP to a real spiced -serve with real spiced workers,
// until the merged work logs are back and the PMF is computed — next to
// the same campaign through campaign.LocalRunner in this process, which
// is both the plain baseline and the oracle the served PMF must equal
// bit for bit. A second, traced mode rebuilds the fleet in-process with
// a probe in every public seam and reports a per-layer budget.
//
// The driver's contract (BENCHMARK.json) is one workload per run:
//
//	bash benchmark/run.sh --workload sweep --seed 7 --seconds 15 --trace 0
//
// Without --workload every workload runs in both modes. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo travels with every result so no row is ever silently a
// one-CPU measurement again.
type hostInfo struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	FleetWorkers   int    `json:"fleet_workers"`
	Oversubscribed bool   `json:"oversubscribed"`
}

func host(root string) hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", FleetWorkers: fleetWorkers,
	}
	h.Oversubscribed = h.NumCPU < fleetWorkers
	// The ceiling keeps git from reporting the commit of some repository
	// that merely contains an unversioned checkout.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// findRoot locates the checkout: the working directory when run through
// run.sh, its parent when run as `go -C benchmark run .`.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "spiced")); err != nil {
			continue
		}
		return dir, nil
	}
	return "", fmt.Errorf("no BENCHMARK.json and cmd/spiced in %s or its parent: run from the root of a spice checkout", wd)
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed         = flag.Uint64("seed", 2005, "seed for the generated campaign specs")
		secs         = flag.Int("seconds", 0, "length of each measured window in seconds (default: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.String("trace", "", "0 = end-to-end metrics on the real fleet, 1 = per-layer metrics on the traced fleet (default: both)")
		outPath      = flag.String("out", "", "append one JSON line per run to this file, the input of -compare")
		allowOver    = flag.Bool("allow-oversubscribed", false, "run even when the host has fewer CPUs than fleet workers")
		compare      = flag.Bool("compare", false, "compare result files given as arguments (a.json [b.json]) under the bounds of BENCHMARK.json instead of running")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	man, err := loadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		return runCompare(os.Stdout, man, flag.Args())
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %q\n", flag.Args())
		return 2
	}

	var runList []workload
	if *workloadFlag == "" {
		runList = workloads
	}
	for _, name := range strings.Split(*workloadFlag, ",") {
		if name == "" {
			continue
		}
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		runList = append(runList, w)
	}
	var traces []int
	switch *traceFlag {
	case "":
		traces = []int{0, 1}
	case "0":
		traces = []int{0}
	case "1":
		traces = []int{1}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0 or 1\n", *traceFlag)
		return 2
	}
	if *secs <= 0 {
		*secs = man.RunSeconds
	}
	length := time.Duration(*secs) * time.Second

	h := host(root)
	fmt.Printf("host: num_cpu=%d GOMAXPROCS=%d %s commit=%s fleet_workers=%d oversubscribed=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.FleetWorkers, h.Oversubscribed)
	if h.Oversubscribed && !*allowOver {
		fmt.Fprintf(os.Stderr, "benchmark: host has %d CPUs for %d fleet workers; its numbers would not measure the fleet (pass -allow-oversubscribed to run anyway, tagged)\n",
			h.NumCPU, fleetWorkers)
		return 3
	}

	// Whatever ends this process — return, panic, SIGINT, SIGTERM — the
	// fleet's processes and state directories go with it.
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out"), states: filepath.Join(root, ".bench_build", "state")}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer func() {
		killAllChildren()
		os.RemoveAll(e.states)
		if r := recover(); r != nil {
			panic(r)
		}
	}()

	buildStart := time.Now()
	if e.spiced, err = buildSpiced(root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("built cmd/spiced in %.2f s\n", time.Since(buildStart).Seconds())

	code = 0
	var last result
	for _, w := range runList {
		p, err := newPlan(w, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		for _, tr := range traces {
			start := time.Now()
			var o *outcome
			decls := man.EndToEnd
			if tr == 0 {
				o, err = runUntraced(ctx, e, p, length)
			} else {
				decls = man.PerLayer
				o, err = runTraced(ctx, e, p, length)
			}
			if err != nil {
				if ctx.Err() != nil {
					fmt.Fprintln(os.Stderr, "benchmark: interrupted")
					return 130
				}
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", w.name, tr, err)
				return 1
			}
			vals, err := o.m.checked(decls)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", w.name, tr, err)
				return 1
			}
			last = result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: vals}
			report(w, tr, *seed, time.Since(start), decls, o, last)
			if !last.Correct {
				code = 1
			}
			if *outPath != "" {
				rec := record{Workload: w.name, Trace: tr, Seed: *seed, Host: h, Notes: o.notes, Samples: o.samples, result: last}
				if err := appendRecord(*outPath, rec); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
			}
		}
	}
	// The last line of standard output is the driver's: the last run's
	// result. A run that failed its own checks says so there ("correct":
	// false) and in the exit code.
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// report prints one run: every metric by name with its unit, in the
// manifest's order, the sample counts and what the output checks found.
func report(w workload, tr int, seed uint64, took time.Duration, decls []metricDecl, o *outcome, r result) {
	fmt.Printf("\n== workload %s  trace=%d  seed=%d  (%.1f s) ==\n", w.name, tr, seed, took.Seconds())
	for _, d := range decls {
		fmt.Printf("  %-42s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range o.notes {
		fmt.Printf("  %s\n", n)
	}
	fmt.Printf("  campaigns attempted=%d failed=%d failed_share=%.4f\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	if r.Correct {
		fmt.Println("  checks: served PMFs bit-identical to LocalRunner, coordinator job counts consistent")
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
