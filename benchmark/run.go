package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"spice/internal/analysis"
	"spice/internal/controlplane"
)

// minRounds is the fewest measured campaigns a window may end with.
const minRounds = 3

// setupRepeats is how many times a run boots the fleet; setup_s is the
// median, and the last fleet booted is the one measured.
const setupRepeats = 11

// env is what every run of one invocation shares.
type env struct {
	root   string // checkout root
	spiced string // built cmd/spiced binary
	outDir string // benchmark/out
	states string // parent of the per-fleet state directories
	nState int
}

func (e *env) stateDir(kind string) string {
	e.nState++
	return filepath.Join(e.states, fmt.Sprintf("%s-%d-%d", kind, os.Getpid(), e.nState))
}

// outcome is one run's measurements plus what the checks said.
type outcome struct {
	m         metrics
	samples   map[string][]float64 // the per-round values behind the timing metrics
	attempted int
	failed    int
	problems  []string // why the run is not correct; empty when it is
	notes     []string // sample counts and other context for the report
}

func (o *outcome) problem(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

func (o *outcome) note(format string, a ...any) { o.notes = append(o.notes, fmt.Sprintf(format, a...)) }

// tally folds one window's campaigns into attempted/failed and checks
// the coordinator's own counters against what was submitted.
func (o *outcome) tally(rr roundsResult) (donePulls int) {
	for _, s := range slices.Concat(rr.Served, rr.Bulk) {
		if s.Err == nil && s.State == controlplane.StateCanceled {
			// The deliberate cancel at the end of a two-tenant window.
			donePulls += s.JobsDone
			continue
		}
		o.attempted++
		if s.Err != nil {
			o.failed++
			o.problem("%v", s.Err)
			continue
		}
		donePulls += s.Pulls
	}
	if !rr.LostAck && rr.Dist.Jobs != rr.Submitted {
		o.problem("coordinator counted %d jobs, %d pulls were submitted", rr.Dist.Jobs, rr.Submitted)
	}
	if rr.Dist.Assignments < donePulls {
		o.problem("coordinator granted %d leases for %d finished pulls", rr.Dist.Assignments, donePulls)
	}
	if rr.Unsettled > 0 {
		o.problem("%d campaigns were disturbed (speculation, lease expiry or shed request) on their rerun too", rr.Unsettled)
	}
	if rr.Disturbed > 0 {
		o.note("%d campaigns rerun after a disturbed first try", rr.Disturbed)
	}
	return donePulls
}

func okLatencies(ss []served) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Err == nil && !s.end.IsZero() {
			out = append(out, s.Latency.Seconds())
		}
	}
	return out
}

// bootAndWarm boots a real fleet and brings it to its idle-poll state,
// returning how long that took.
func bootAndWarm(ctx context.Context, e *env, p *plan) (*procFleet, time.Duration, error) {
	start := time.Now()
	f, err := bootProcFleet(ctx, e.spiced, e.stateDir("proc"))
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := warmUp(ctx, newClient(f.httpAddr, nil), p); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), f.close())
	}
	return f, time.Since(start), nil
}

// runUntraced measures the end-to-end metrics of one workload on a real
// spiced fleet, tracing off.
func runUntraced(ctx context.Context, e *env, p *plan, length time.Duration) (*outcome, error) {
	o := &outcome{m: metrics{}}
	var fleet *procFleet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if fleet != nil {
			if err := fleet.close(); err != nil {
				return nil, err
			}
		}
		f, took, err := bootAndWarm(ctx, e, p)
		if err != nil {
			return nil, err
		}
		fleet = f
		setups = append(setups, took.Seconds())
	}
	defer fleet.close()

	rr, err := driveRounds(ctx, fleet.httpAddr, p, window{length: length, minRounds: minRounds, baseline: true, cpu: fleet})
	if err := errors.Join(err, fleet.alive()); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(fleet.serve.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	donePulls := o.tally(rr)
	lat := okLatencies(rr.Served)
	if len(lat) == 0 || donePulls == 0 {
		return nil, fmt.Errorf("no campaign completed: %v", o.problems)
	}
	// CPU per pull is sampled per campaign; the two-tenant window mixes
	// campaigns and is one sample.
	var cpuPerPull []float64
	for _, s := range rr.Served {
		if p.w.bulk == nil && s.Err == nil {
			cpuPerPull = append(cpuPerPull, (s.ServeCPU+s.WorkerCPU)*1e3/float64(s.Pulls))
		}
	}
	if p.w.bulk != nil {
		cpuPerPull = []float64{(rr.ServeCPU + rr.WorkerCPU) * 1e3 / float64(donePulls)}
	}
	// This host's noise is one-sided — a neighbour can only slow the
	// machine down, for a minute at a time — so the two quantities that
	// are costs of the code alone (the baseline, CPU per pull) are
	// reported as the fastest of their samples. The served latency and
	// set-up also contain waits on a poll phase (the fleet's idle poll,
	// the client's status poll), a real cost a user pays with even odds
	// of more or less: they are medians.
	o.m.set("setup_s", analysis.Median(setups))
	o.m.set("submit_to_pmf_s", analysis.Median(lat))
	o.m.set("local_pmf_s", slices.Min(seconds(rr.Local)))
	o.m.set("pulls_per_s", float64(donePulls)/rr.Window.Seconds())
	o.m.set("fleet_cpu_ms_per_pull", slices.Min(cpuPerPull))
	o.m.set("serve_peak_rss_mb", rss)
	o.samples = map[string][]float64{
		"setup_s": setups, "submit_to_pmf_s": lat, "local_pmf_s": seconds(rr.Local), "fleet_cpu_ms_per_pull": cpuPerPull,
	}
	o.note("samples: setup_s n=%d, submit_to_pmf_s n=%d, local_pmf_s n=%d, fleet_cpu_ms_per_pull n=%d; %d pulls in %.2f s of fleet time",
		len(setups), len(lat), len(rr.Local), len(cpuPerPull), donePulls, rr.Window.Seconds())
	if len(rr.Bulk) > 0 {
		o.note("bulk tenant: %d campaigns, the last one cancelled", len(rr.Bulk))
	}
	if err := fleet.close(); err != nil {
		o.problem("fleet shutdown: %v", err)
	}
	return o, nil
}

// runTraced produces the per-layer metrics of one workload: direct-call
// costs with no fleet up, then a window on the in-process fleet with a
// probe in every seam, then one short window on a real fleet for the
// per-process split and the traced-to-untraced ratio.
func runTraced(ctx context.Context, e *env, p *plan, length time.Duration) (*outcome, error) {
	o := &outcome{m: metrics{}}
	if err := microCosts(p.spec, o.m); err != nil {
		return nil, fmt.Errorf("direct-call costs: %w", err)
	}

	f, err := bootInprocFleet(e.stateDir("inproc"))
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := warmUp(ctx, newClient(f.httpAddr, nil), p); err != nil {
		return nil, err
	}
	rec, tally, before := &recorder{}, &httpTally{}, f.mark()
	rr, err := driveRounds(ctx, f.httpAddr, p, window{length: length, minRounds: minRounds, baseline: true, rec: rec, tally: tally})
	if err != nil {
		return nil, err
	}
	donePulls := o.tally(rr)
	if donePulls == 0 {
		return nil, fmt.Errorf("no campaign completed: %v", o.problems)
	}
	if err := scrape(f.httpAddr, o.m); err != nil {
		return nil, err
	}
	if err := tracedLayers(f, rr, tally, rec, before, o.m); err != nil {
		return nil, err
	}
	if err := f.close(); err != nil {
		o.problem("in-process fleet shutdown: %v", err)
	}
	spans := rec.finish()
	if err := writeTrace(filepath.Join(e.outDir, "trace-"+p.w.name+".json"), spans); err != nil {
		return nil, err
	}
	o.note("traced window: %d campaigns, %d pulls, %d spans", len(rr.Served), donePulls, len(spans))
	o.notes = append(o.notes, selfTimeReport(spans)...)

	// The real fleet once more, briefly and untraced: only separate
	// processes can say which of them the CPU went to.
	fleet, _, err := bootAndWarm(ctx, e, p)
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	ur, err := driveRounds(ctx, fleet.httpAddr, p, window{minRounds: 1, cpu: fleet})
	if err := errors.Join(err, fleet.alive()); err != nil {
		return nil, err
	}
	realPulls := o.tally(ur)
	lat := okLatencies(ur.Served)
	if realPulls == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("no campaign completed on the real fleet: %v", o.problems)
	}
	_, wpids := fleet.pids()
	workerRSS := 0.0
	for _, pid := range wpids {
		rss, err := peakRSSMB(pid)
		if err != nil {
			return nil, err
		}
		workerRSS = max(workerRSS, rss)
	}
	o.m.set("spiced-serve.cpu_ms_per_pull", ur.ServeCPU*1e3/float64(realPulls))
	o.m.set("spiced-worker.cpu_ms_per_pull", ur.WorkerCPU*1e3/float64(realPulls))
	o.m.set("spiced-worker.peak_rss_mb", workerRSS)
	o.m.set("traced.submit_to_pmf_ratio", o.m["traced.submit_to_pmf_s"]/analysis.Median(lat))
	o.note("real-fleet window for the process split: %d campaigns, %d pulls", len(lat), realPulls)
	if err := fleet.close(); err != nil {
		o.problem("fleet shutdown: %v", err)
	}
	return o, nil
}

// scrape times one GET /metrics on the control plane.
func scrape(addr string, m metrics) error {
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	m.set("obs.scrape_ms", ms(time.Since(start)))
	m.set("obs.scrape_bytes", float64(n))
	return nil
}

func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimeReport sums self time per span name: where, between the
// boundaries the benchmark can see, the traced campaigns' time went.
func selfTimeReport(spans []span) []string {
	self := make(map[string]int64)
	count := make(map[string]int)
	for _, s := range spans {
		self[s.Name] += s.SelfNs
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{"self time by span (total over the traced window):"}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-28s %10.3f ms  n=%d", n, float64(self[n])/1e6, count[n]))
	}
	return out
}
