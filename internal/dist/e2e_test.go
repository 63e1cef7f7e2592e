package dist_test

// The end-to-end test: a coordinator in this process, real spiced
// worker processes over loopback TCP. One worker is frozen (SIGSTOP)
// mid-job so its lease expires and the job migrates — resuming from the
// streamed checkpoint on another process — and the final merged
// campaign must still be bit-identical to a single-process run.

import (
	"bufio"
	"encoding/json"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
)

// e2eSystem is the model system shipped to the worker processes.
func e2eSystem() core.SystemConfig {
	return core.SystemConfig{
		Beads:        3,
		StartZ:       5,
		EquilSteps:   50,
		DT:           0.02,
		Temp:         300,
		PoreFriction: 1,
	}
}

func e2eSpec() campaign.Spec {
	return campaign.Spec{
		Kappas:     []float64{100, 1000},
		Velocities: []float64{800},
		Replicas:   2,
		Distance:   3,
		Seed:       31,
	}
}

func buildSpiced(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spiced")
	cmd := exec.Command("go", "build", "-o", bin, "spice/cmd/spiced")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building spiced: %v\n%s", err, out)
	}
	return bin
}

func spawnSpiced(t *testing.T, bin, addr, name string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{
		"-coordinator", addr,
		"-name", name,
		"-beat", "20ms",
	}, extra...)
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

// spawnSpicedObs is spawnSpiced with -obs-addr 127.0.0.1:0; it parses
// the daemon's "observability: http://..." banner off stdout and
// returns the debug server's base URL alongside the process.
func spawnSpicedObs(t *testing.T, bin, addr, name string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{
		"-coordinator", addr,
		"-name", name,
		"-beat", "20ms",
		"-obs-addr", "127.0.0.1:0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "observability: http://"); ok {
				urlCh <- "http://" + strings.TrimSuffix(strings.Fields(rest)[0], "/metrics")
			}
		}
	}()
	select {
	case base := <-urlCh:
		return cmd, base
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never printed its observability banner", name)
		return nil, ""
	}
}

func TestEndToEndWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs worker processes")
	}
	sys := e2eSystem()
	sysJSON, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	spec := e2eSpec()

	// Single-process baseline through the exact same build path the
	// worker daemons use.
	lr := &campaign.LocalRunner{
		Build: func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			return core.BuildFromJSON(sysJSON, c, seed)
		},
		Workers: 1,
	}
	want, err := lr.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	bin := buildSpiced(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(nil, 2048)
	co := dist.NewTestCoordinator(t, ln, sysJSON, func(c *dist.Config) {
		c.LeaseTTL = 500 * time.Millisecond
		c.Events = events
	})
	t.Cleanup(func() { _ = co.Close() })
	dist.RegisterMetrics(reg, co)
	srv, err := obs.Serve("127.0.0.1:0", reg, events, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	resCh := make(chan map[campaign.Combo][]*trace.WorkLog, 1)
	errCh := make(chan error, 1)
	go func() {
		logs, err := co.Run(spec)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- logs
	}()

	addr := ln.Addr().String()
	// The doomed worker: checkpoints at every sample with an artificial
	// nap, so it is guaranteed to be mid-job when frozen.
	doomed := spawnSpiced(t, bin, addr, "doomed", "-ckpt-every", "1", "-throttle", "30ms")

	deadline := time.Now().Add(30 * time.Second)
	for co.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never streamed a checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Freeze it: the TCP connection stays open but heartbeats stop, so
	// only the lease-expiry path can recover the job.
	if err := doomed.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}

	// Two healthy worker processes finish the campaign. Alpha carries
	// the full observability surface; smoke-check every endpoint while
	// it runs (the daemon exits when the coordinator drains, taking its
	// debug server with it, so this is the moment they are reachable).
	_, alphaBase := spawnSpicedObs(t, bin, addr, "alpha")
	spawnSpiced(t, bin, addr, "beta")

	requireHealthy(t, alphaBase)
	// The worker families materialize once alpha's metrics registration
	// runs, which races this scrape right after spawn — poll instead of
	// asserting on the first response.
	scrapeDeadline := time.Now().Add(10 * time.Second)
	for {
		wm := scrapeProm(t, alphaBase+"/metrics")
		if _, ok := wm[`spice_worker_jobs_started_total{worker="alpha"}`]; ok {
			break
		}
		if time.Now().After(scrapeDeadline) {
			t.Fatalf("worker scrape missing spice_worker_jobs_started_total: %v", wm)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _ := httpGet(t, alphaBase+"/debug/pprof/"); code != 200 {
		t.Fatalf("worker /debug/pprof/ = %d, want 200", code)
	}

	var got map[campaign.Combo][]*trace.WorkLog
	select {
	case got = <-resCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(120 * time.Second):
		t.Fatal("distributed campaign did not finish")
	}
	_ = doomed.Process.Kill()

	requireBitIdenticalLogs(t, want, got)

	st := co.Stats()
	if st.LeaseExpiries < 1 {
		t.Fatalf("expected a lease expiry from the frozen worker, stats = %+v", st)
	}
	if st.Resumes < 1 {
		t.Fatalf("expected a checkpoint resume on another process, stats = %+v", st)
	}
	if st.Retries < 1 {
		t.Fatalf("expected the frozen job to be retried, stats = %+v", st)
	}

	// At least two distinct processes must have completed work: the
	// frozen job's history alone names two workers.
	names := map[string]bool{}
	for _, ev := range dist.LeaseEvents(t, events) {
		names[ev.Worker] = true
	}
	if len(names) < 2 {
		t.Fatalf("expected >= 2 worker processes to participate, saw %v", names)
	}

	// Coordinator-side obs smoke: /healthz, /debug/pprof/, and the
	// scraped counters for the recovery story must equal the Stats the
	// assertions above just read — same snapshot, no drift. These
	// counters are settled once the campaign is over (worker processes
	// hanging up can only move Disconnects, which we leave out).
	base := "http://" + srv.Addr()
	requireHealthy(t, base)
	if code, _ := httpGet(t, base+"/debug/pprof/"); code != 200 {
		t.Fatalf("coordinator /debug/pprof/ = %d, want 200", code)
	}
	m := scrapeProm(t, base+"/metrics")
	st = co.Stats()
	requireMetric(t, m, "spice_dist_jobs_total", float64(st.Jobs))
	requireMetric(t, m, "spice_dist_assignments_total", float64(st.Assignments))
	requireMetric(t, m, "spice_dist_retries_total", float64(st.Retries))
	requireMetric(t, m, "spice_dist_resumes_total", float64(st.Resumes))
	requireMetric(t, m, "spice_dist_lease_expiries_total", float64(st.LeaseExpiries))
	if n := events.Count("lease_expired"); n != int64(st.LeaseExpiries) {
		t.Fatalf("event log saw %d lease_expired, stats say %d", n, st.LeaseExpiries)
	}
}

// requireBitIdenticalLogs compares every sample of every replica.
func requireBitIdenticalLogs(t *testing.T, want, got map[campaign.Combo][]*trace.WorkLog) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("combo counts differ: %d vs %d", len(want), len(got))
	}
	for c, wls := range want {
		gls := got[c]
		if len(gls) != len(wls) {
			t.Fatalf("combo %s: %d replicas, want %d", c, len(gls), len(wls))
		}
		for r := range wls {
			if len(gls[r].Samples) != len(wls[r].Samples) {
				t.Fatalf("combo %s replica %d: %d samples, want %d", c, r, len(gls[r].Samples), len(wls[r].Samples))
			}
			for i := range wls[r].Samples {
				if gls[r].Samples[i] != wls[r].Samples[i] {
					t.Fatalf("combo %s replica %d sample %d: %+v != %+v (not bit-identical)",
						c, r, i, gls[r].Samples[i], wls[r].Samples[i])
				}
			}
		}
	}
}
