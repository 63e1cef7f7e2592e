package dist_test

// The slow-site chaos scenario: a federated sweep where one site is
// degraded but alive — its compute throttled roughly 10× and its link
// shaped with latency and a bandwidth cap (netsim.Gate) — while a
// healthy site runs at full speed. Nothing ever times out a lease: the
// slow worker heartbeats on schedule the whole way. Recovery has to
// come from the resilience layer instead: the coordinator must notice
// the crawling checkpoint rate, hedge the job speculatively onto the
// healthy site, accept whichever attempt finishes first, and strike the
// slow site's breaker for losing a race it was demonstrably crawling
// through. The merged PMF must be bit-identical to an unhindered run —
// duplicated execution may never show up in the science.

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/netsim"
	"spice/internal/obs"
)

// siteWorker declares one in-process worker for startSiteWorkers.
type siteWorker struct {
	name, site string
	throttle   time.Duration
	dial       func(string) (net.Conn, error)
}

// startSiteWorkers launches in-process workers carrying explicit site
// identities; the returned stop cancels them all.
func startSiteWorkers(t *testing.T, addr string, defs []siteWorker) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	for _, d := range defs {
		w := dist.NewTestWorker(t, d.name, d.site, addr, core.BuildFromJSON, func(c *dist.Config) {
			c.BeatInterval = 20 * time.Millisecond
			c.CheckpointEvery = 1
			c.Throttle = d.throttle
			c.Dial = d.dial
		})
		go w.Run(ctx)
	}
	return cancel
}

func TestChaosSlowSiteSpeculation(t *testing.T) {
	cfg := chaosSweepConfig()
	// Slower pulls than the kill-recovery scenario: more samples per job
	// means both sites stream enough checkpoints for the coordinator to
	// learn per-site progress rates, and the straggling job is still in
	// flight when the hedge window opens.
	cfg.Velocities = []float64{100}
	sysJSON, err := json.Marshal(cfg.System)
	if err != nil {
		t.Fatal(err)
	}

	// Unhindered single-process baseline.
	localCfg := cfg
	localCfg.Workers = 1
	want, err := core.RunSweep(localCfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The full observability surface rides along: a registry scraped
	// over real HTTP and an event log whose per-name counts must agree
	// with the final Stats — the drift check the obs layer is built for.
	reg := obs.NewRegistry()
	events := obs.NewEventLog(nil, 4096)
	co := dist.NewTestCoordinator(t, ln, sysJSON, func(c *dist.Config) {
		// A generous TTL so lease expiry cannot be the recovery path:
		// the slow site beats faithfully, and if the job comes back it
		// must be because speculation raced it home.
		c.LeaseTTL = 10 * time.Second
		c.HedgeFraction = 0.3
		c.HedgeAfter = 150 * time.Millisecond
		c.IOTimeout = 10 * time.Second
		c.Events = events
	})
	t.Cleanup(func() { _ = co.Close() })
	dist.RegisterMetrics(reg, co)
	srv, err := obs.Serve("127.0.0.1:0", reg, events, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	addr := ln.Addr().String()

	// The slow site: compute throttled ~10× relative to the healthy
	// workers' pace, dialing through a gate that adds 25ms of latency
	// and caps the link at 256 KB/s in each direction.
	slowLink := netsim.NewGate()
	slowLink.SetShape(
		netsim.Shape{Latency: 25 * time.Millisecond, KBps: 256},
		netsim.Shape{Latency: 25 * time.Millisecond, KBps: 256},
	)
	// Both sites nap at every checkpoint so both stream measurable
	// progress rates; the tarpit naps ~60× longer — degraded but alive.
	// Three tarpit workers take three of the sweep's four jobs before the
	// healthy site joins, so the tarpit can lose three races in a row:
	// the strikes that open a breaker.
	var tarpit []siteWorker
	for _, name := range []string{"tarpit-0", "tarpit-1", "tarpit-2"} {
		tarpit = append(tarpit, siteWorker{name: name, site: "tarpit", throttle: 300 * time.Millisecond, dial: slowLink.Dial(nil)})
	}
	stopTarpit := startSiteWorkers(t, addr, tarpit)
	defer stopTarpit()

	distCfg := cfg
	distCfg.Runner = co
	type sweepOut struct {
		res *core.SweepResult
		err error
	}
	resCh := make(chan sweepOut, 1)
	go func() {
		res, err := core.RunSweep(distCfg)
		resCh <- sweepOut{res, err}
	}()
	for deadline := time.Now().Add(30 * time.Second); co.SiteStats()["tarpit"].Assignments < 3; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the tarpit workers never took three jobs: %+v", co.SiteStats()["tarpit"])
		}
	}
	stopQuick := startSiteWorkers(t, addr, []siteWorker{
		{name: "quick-0", site: "quick", throttle: 5 * time.Millisecond},
		{name: "quick-1", site: "quick", throttle: 5 * time.Millisecond},
	})
	defer stopQuick()

	// The hard timeout doubles as the connection-hygiene assertion: with
	// per-I/O deadlines armed everywhere, a shaped, saturated link can
	// slow the campaign but never wedge a read forever.
	var got *core.SweepResult
	select {
	case out := <-resCh:
		if out.err != nil {
			t.Fatal(out.err)
		}
		got = out.res
	case <-time.After(120 * time.Second):
		t.Fatal("sweep wedged: a read outlived every deadline")
	}

	requireBitIdenticalLogs(t, want.Logs, got.Logs)
	for i := range want.Reference {
		if got.Reference[i] != want.Reference[i] {
			t.Fatalf("reference PMF diverges at %d: %v != %v", i, got.Reference[i], want.Reference[i])
		}
	}
	for i := range want.Best.PMF {
		if got.Best.PMF[i] != want.Best.PMF[i] {
			t.Fatalf("merged PMF diverges at %d: %v != %v", i, got.Best.PMF[i], want.Best.PMF[i])
		}
	}

	st := co.Stats()
	if st.StragglersDetected < 1 {
		t.Fatalf("slow site was never flagged as a straggler: %+v", st)
	}
	if st.SpeculationsLaunched < 1 || st.SpeculationsWon < 1 {
		t.Fatalf("speculation did not launch and win: launched=%d won=%d",
			st.SpeculationsLaunched, st.SpeculationsWon)
	}
	if st.LeaseExpiries != 0 {
		t.Fatalf("recovery leaked into lease expiry (TTL should never fire here): %+v", st)
	}
	if st.Failures != 0 {
		t.Fatalf("unexpected worker failures: %+v", st)
	}

	sites := co.SiteStats()
	slow, ok := sites["tarpit"]
	if !ok {
		t.Fatalf("slow site missing from site stats: %v", sites)
	}
	if slow.SpecLost < 1 {
		t.Fatalf("slow site never lost a speculation race: %+v", slow)
	}
	// Losing while demonstrably crawling is a strike, and three in a row
	// are a quarantine: the breaker must have recorded the trip.
	if slow.BreakerTrips < 1 {
		t.Fatalf("slow site's breaker never tripped: %+v", slow)
	}
	quick, ok := sites["quick"]
	if !ok || quick.SpecWon < 1 {
		t.Fatalf("healthy site never won a speculation: %+v", quick)
	}
	if quick.Breaker != "closed" || quick.BreakerTrips != 0 {
		t.Fatalf("healthy site's breaker disturbed: %+v", quick)
	}

	// The scraped /metrics view must equal the final Stats exactly —
	// the collector renders the same snapshot, so any divergence means
	// a second set of counters has crept in. The campaign is over and
	// every counter below is settled, so exact equality is fair.
	base := "http://" + srv.Addr()
	requireHealthy(t, base)
	m := scrapeProm(t, base+"/metrics")
	requireMetric(t, m, "spice_dist_jobs_total", float64(st.Jobs))
	requireMetric(t, m, "spice_dist_assignments_total", float64(st.Assignments))
	requireMetric(t, m, "spice_dist_retries_total", float64(st.Retries))
	requireMetric(t, m, "spice_dist_stragglers_detected_total", float64(st.StragglersDetected))
	requireMetric(t, m, "spice_dist_speculations_launched_total", float64(st.SpeculationsLaunched))
	requireMetric(t, m, "spice_dist_speculations_won_total", float64(st.SpeculationsWon))
	requireMetric(t, m, "spice_dist_speculations_wasted_total", float64(st.SpeculationsWasted))
	requireMetric(t, m, "spice_dist_breaker_trips_total", float64(st.BreakerTrips))
	requireMetric(t, m, "spice_dist_lease_expiries_total", 0)
	requireMetric(t, m, "spice_dist_failures_total", 0)
	requireMetric(t, m, `spice_dist_site_spec_won{site="quick"}`, float64(quick.SpecWon))
	requireMetric(t, m, `spice_dist_site_breaker_trips{site="tarpit"}`, float64(slow.BreakerTrips))

	// The event log is the third view of the same run: its per-name
	// counts must agree with the counters, and its span keys must line
	// up with the jobs the coordinator actually leased.
	if n := events.Count("lease_granted"); n != int64(st.Assignments) {
		t.Fatalf("event log saw %d lease_granted, stats say %d assignments", n, st.Assignments)
	}
	if n := events.Count("straggler_flagged"); n != int64(st.StragglersDetected) {
		t.Fatalf("event log saw %d straggler_flagged, stats say %d", n, st.StragglersDetected)
	}
	if n := events.Count("breaker_open"); n != int64(st.BreakerTrips) {
		t.Fatalf("event log saw %d breaker_open, stats say %d trips", n, st.BreakerTrips)
	}
	hedges := int64(0)
	jobIDs := map[string]bool{}
	for _, ev := range events.Recent(0) {
		if ev.Name == "result_accepted" {
			jobIDs[ev.Job] = true
		}
	}
	if len(jobIDs) != st.Jobs {
		t.Fatalf("event log accepted results for %d jobs, stats say %d", len(jobIDs), st.Jobs)
	}
	for _, ev := range dist.LeaseEvents(t, events) {
		if ev.Name == "lease_granted" {
			if h, _ := ev.Fields["hedge"].(bool); h {
				hedges++
			}
			if !jobIDs[ev.Job] {
				t.Fatalf("event %d leases unknown job %q", ev.Seq, ev.Job)
			}
		}
	}
	if hedges != int64(st.SpeculationsLaunched) {
		t.Fatalf("event log saw %d hedged grants, stats say %d speculations", hedges, st.SpeculationsLaunched)
	}
}
