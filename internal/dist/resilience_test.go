package dist

// Tests for the federation-resilience layer: per-site circuit breakers,
// deterministic retry jitter, straggler detection, and speculative
// hedged re-execution — including the invariant everything else leans
// on, that a speculation race merges bit-identically to a local run
// because both attempts compute the same bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/smd"
	"spice/internal/trace"
)

// TestBackoffDeterministicJitter pins the requeue delay contract at the
// default lease TTL: the exponential base runs from 50 ms doubling to a
// 2 s cap, the jittered delay stays inside [d/2, d) of it, is a pure
// function of (job, attempt) — the schedule of all eight attempts is
// pinned by value — and decorrelates different jobs.
func TestBackoffDeterministicJitter(t *testing.T) {
	co := newCoordinator(t, func(c *Config) { c.LeaseTTL = Defaults().LeaseTTL })
	const retryBase, retryMax = 50 * time.Millisecond, 2 * time.Second
	pinned := []time.Duration{32397460, 80725097, 150830078, 395458984,
		748437500, 951757812, 1083496093, 1251708984}

	base := func(attempts int) time.Duration {
		d := retryBase
		for i := 1; i < attempts; i++ {
			d *= 2
			if d >= retryMax {
				return retryMax
			}
		}
		return d
	}
	for attempts := 1; attempts <= 10; attempts++ {
		d := base(attempts)
		got := co.leases.retry.Keyed("smdje-k100v800-r0", attempts)
		if got < d/2 || got >= d {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempts, got, d/2, d)
		}
		if again := co.leases.retry.Keyed("smdje-k100v800-r0", attempts); again != got {
			t.Fatalf("attempt %d: backoff not deterministic: %v then %v", attempts, got, again)
		}
		if attempts <= len(pinned) && got != pinned[attempts-1] {
			t.Fatalf("attempt %d: backoff %v, want %v", attempts, got, pinned[attempts-1])
		}
	}

	// Different jobs at the same attempt must not retry in lockstep.
	seen := map[time.Duration]bool{}
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		seen[co.leases.retry.Keyed(id, 1)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("8 jobs share one jittered delay: %v", seen)
	}
}

// TestStragglerScanTriggers exercises the hedge trigger against a
// synthetic job table: a lease crawling below the fleet-median fraction
// is flagged once it is HedgeAfter old, and never with HedgeFraction 0.
func TestStragglerScanTriggers(t *testing.T) {
	now := time.Now()
	mkCamp := func(l *lease) (*campaignRun, *job) {
		j := &job{id: "j", state: stateLeased, leases: []*lease{l}}
		return &campaignRun{jobs: []*job{j}}, j
	}

	// Rate trigger: lease at 1 step/s against a fleet median of 100.
	co := newCoordinator(t, func(c *Config) { c.HedgeFraction, c.HedgeAfter = 0.3, 10*time.Millisecond })
	co.sites.get("fast1").rate.observe(100)
	co.sites.get("fast2").rate.observe(100)
	camp, j := mkCamp(&lease{site: "slow", granted: now.Add(-time.Second), stepsAt: now, rate: ewma[float64]{v: 1, ok: true}})
	co.stragglerScanLocked(camp, now)
	if !j.straggler || co.stats.StragglersDetected != 1 {
		t.Fatalf("rate trigger did not flag: straggler=%v detected=%d", j.straggler, co.stats.StragglersDetected)
	}

	// Below HedgeAfter the same lease is left alone — short jobs are
	// never hedged.
	co2 := newCoordinator(t, func(c *Config) { c.HedgeFraction, c.HedgeAfter = 0.3, 10*time.Second })
	co2.sites.get("fast1").rate.observe(100)
	co2.sites.get("fast2").rate.observe(100)
	camp2, j2 := mkCamp(&lease{site: "slow", granted: now.Add(-time.Second), stepsAt: now, rate: ewma[float64]{v: 1, ok: true}})
	co2.stragglerScanLocked(camp2, now)
	if j2.straggler {
		t.Fatal("lease younger than HedgeAfter was flagged")
	}

	// HedgeFraction 0: hedging disabled, nothing flagged.
	co3 := newCoordinator(t, nil)
	co3.sites.get("fast1").rate.observe(100)
	co3.sites.get("fast2").rate.observe(100)
	camp3, j3 := mkCamp(&lease{site: "s", granted: now.Add(-time.Hour), stepsAt: now.Add(-time.Hour), rate: ewma[float64]{v: 1, ok: true}})
	co3.stragglerScanLocked(camp3, now)
	if j3.straggler || co3.stats.StragglersDetected != 0 {
		t.Fatal("coordinator with hedging disabled hedged a job")
	}
}

// seedCrawl stands in for streamed progress, the rate trigger's input:
// under co.mu it gives jobID's sole lease and that lease's site a rate
// EWMA of 1 step/s and site fast one of 100, so the fleet median is 100
// and the lease is flagged once it is HedgeAfter old. The lease keeps
// steps at 0: it streamed nothing its breaker could be struck for.
func seedCrawl(t *testing.T, co *Coordinator, jobID, fast string) {
	t.Helper()
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, camp := range co.leases.camps {
		for _, j := range camp.jobs {
			if j.id == jobID && len(j.leases) == 1 {
				l := j.leases[0]
				l.rate.observe(1)
				co.sites.get(l.site).rate.observe(1)
				co.sites.get(fast).rate.observe(100)
				return
			}
		}
	}
	t.Fatalf("job %s has no sole lease to seed", jobID)
}

// pullLog computes the bit-exact result for an assignment the way a
// real worker would.
func pullLog(t *testing.T, assign *response) *trace.WorkLog {
	t.Helper()
	task := campaign.Task{Combo: assign.Job.Combo, Seed: assign.Job.Seed, Index: assign.Job.Index}
	log, err := campaign.ExecutePull(*assign.Spec, task, func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
		return localBuild(c, seed)
	}, smd.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestSpeculativeHedgeRace pins the hedge protocol end to end with
// hand-rolled clients: a lease whose progress rate crawls against the
// fleet median is flagged as a straggler, a second site is granted a
// speculative lease on the same job, the hedge's result wins, the
// original's late result is dropped as a duplicate, and the merged
// campaign output is bit-identical to a LocalRunner run — duplicated
// execution is invisible in the science.
func TestSpeculativeHedgeRace(t *testing.T) {
	spec := campaign.Spec{
		Kappas:     []float64{100},
		Velocities: []float64{800},
		Replicas:   1,
		Distance:   3,
		Seed:       21,
	}
	want := localBaseline(t, spec)

	events := obs.NewEventLog(nil, 1<<10)
	co := newCoordinator(t, func(c *Config) {
		c.HedgeFraction, c.HedgeAfter = 0.3, 20*time.Millisecond
		c.Events = events
	})
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
	addr := co.Listener.Addr().String()

	// The straggler: holds the only job and beats dutifully, but its
	// progress crawls at a hundredth of the fleet median — alive but
	// degraded, the shape a congested site has.
	stuck := dialSiteClient(t, addr, "stuck-0", "congested")
	assign1 := stuck.next()
	jobID, attempt1 := assign1.Job.ID, assign1.Job.Attempt
	seedCrawl(t, co, jobID, "healthy")

	deadline := time.Now().Add(10 * time.Second)
	for co.Stats().StragglersDetected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("crawling lease never flagged as straggler")
		}
		if resp := stuck.rt(&request{Type: msgBeat, JobID: jobID, Attempt: attempt1}); resp.Type != msgOK {
			t.Fatalf("beat got %q", resp.Type)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A healthy second site asks for work: the only job is leased, so
	// the grant it gets must be the speculative hedge.
	healthy := dialSiteClient(t, addr, "healthy-0", "healthy")
	assign2 := healthy.next()
	if assign2.Job.ID != jobID {
		t.Fatalf("hedge leased %s, want straggling job %s", assign2.Job.ID, jobID)
	}
	if assign2.Job.Attempt != attempt1+1 {
		t.Fatalf("hedge attempt = %d, want %d", assign2.Job.Attempt, attempt1+1)
	}
	if st := co.Stats(); st.SpeculationsLaunched != 1 {
		t.Fatalf("SpeculationsLaunched = %d, want 1", st.SpeculationsLaunched)
	}

	// The hedge computes and delivers first; same-site determinism means
	// its bytes equal whatever the straggler would eventually produce.
	log := pullLog(t, assign2)
	if resp := healthy.rt(&request{Type: msgResult, JobID: jobID, Attempt: assign2.Job.Attempt, Log: log}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("hedge result rejected: %+v", resp)
	}
	// The loser reports late: acked, dropped, not merged.
	if resp := stuck.rt(&request{Type: msgResult, JobID: jobID, Attempt: attempt1, Log: log}); resp.Type != msgOK {
		t.Fatalf("losing result not acked: %+v", resp)
	}
	// And a loser heartbeat is told to abandon.
	if resp := stuck.rt(&request{Type: msgBeat, JobID: jobID, Attempt: attempt1}); resp.Type != msgAbandon {
		t.Fatalf("losing beat got %q, want abandon", resp.Type)
	}

	select {
	case logs := <-resCh:
		requireBitIdentical(t, want, logs)
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish")
	}

	st := co.Stats()
	if st.SpeculationsWon != 1 || st.SpeculationsWasted != 1 {
		t.Fatalf("speculation settlement: won = %d wasted = %d, want 1/1", st.SpeculationsWon, st.SpeculationsWasted)
	}
	if st.DuplicateResultsDropped != 1 {
		t.Fatalf("DuplicateResultsDropped = %d, want 1", st.DuplicateResultsDropped)
	}
	var leases, hedges int
	for _, ev := range LeaseEvents(t, events) {
		if ev.Job != jobID {
			continue
		}
		leases++
		if h, _ := ev.Fields["hedge"].(bool); h {
			hedges++
		}
	}
	if leases != 2 || hedges != 1 {
		t.Fatalf("job %s leased %d times (%d hedges), want 1 speculation over 2 leases", jobID, leases, hedges)
	}
	sites := co.SiteStats()
	if s := sites["healthy"]; s.SpecWon != 1 || s.Completions != 1 {
		t.Fatalf("winner site stats: %+v", s)
	}
	if s := sites["congested"]; s.SpecLost != 1 {
		t.Fatalf("loser site stats: %+v", s)
	}
	// The stuck lease streamed no steps, so losing the race is not held
	// against its breaker.
	if s := sites["congested"]; s.Breaker != "closed" || s.Strikes != 0 {
		t.Fatalf("loser site struck without evidence: %+v", sites["congested"])
	}
}

// TestBreakerQuarantinesFailingSite drives the breaker through the wire
// protocol: three consecutive failures from one site, and not two, open
// its breaker (next gets wait, not work, while the queue is non-empty),
// the cooldown of two lease TTLs admits a single probe, and the probe's
// success closes the breaker and lets the campaign finish
// bit-identically.
func TestBreakerQuarantinesFailingSite(t *testing.T) {
	spec := campaign.Spec{
		Kappas:     []float64{100},
		Velocities: []float64{800},
		Replicas:   1,
		Distance:   3,
		Seed:       21,
	}
	want := localBaseline(t, spec)

	// A 200 ms TTL: a 400 ms cooldown and requeue backoffs of a few ms.
	co := newCoordinator(t, func(c *Config) {
		c.LeaseTTL, c.BeatInterval = 200*time.Millisecond, 20*time.Millisecond
	})
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

	flaky := dialSiteClient(t, co.Listener.Addr().String(), "flaky-0", "flaky")
	var log *trace.WorkLog
	for i := 0; i < 3; i++ {
		if i == 2 {
			if s := co.SiteStats()["flaky"]; s.Breaker != "closed" || s.BreakerTrips != 0 {
				t.Fatalf("breaker not closed after 2 failures: %+v", s)
			}
		}
		assign := flaky.next()
		if resp := flaky.rt(&request{Type: msgFail, JobID: assign.Job.ID, Attempt: assign.Job.Attempt, Err: "induced"}); resp.Type != msgOK {
			t.Fatalf("fail %d not acked: %+v", i, resp)
		}
		if log == nil {
			// Computed while no lease is out, so the probe below reports
			// well inside its TTL.
			log = pullLog(t, assign)
		}
	}
	st := co.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d after 3 failures, want 1", st.BreakerTrips)
	}
	if s := co.SiteStats()["flaky"]; s.Breaker != "open" || s.Failures != 3 {
		t.Fatalf("site not quarantined: %+v", s)
	}
	// Quarantined: the job is pending (its few-ms backoff long past) but
	// the site gets wait, not work.
	time.Sleep(10 * time.Millisecond)
	if resp := flaky.rt(&request{Type: msgNext}); resp.Type != msgWait {
		t.Fatalf("quarantined site got %q, want wait", resp.Type)
	}

	// After the cooldown the breaker half-opens for exactly one probe.
	probe := flaky.next()
	st = co.Stats()
	if st.BreakerProbes != 1 {
		t.Fatalf("BreakerProbes = %d, want 1", st.BreakerProbes)
	}
	if s := co.SiteStats()["flaky"]; s.Breaker != "half-open" {
		t.Fatalf("site not half-open during probe: %+v", s)
	}

	// The probe succeeds: breaker closes, campaign completes, output
	// still bit-identical despite the failures.
	if resp := flaky.rt(&request{Type: msgResult, JobID: probe.Job.ID, Attempt: probe.Job.Attempt, Log: log}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("probe result rejected: %+v", resp)
	}
	select {
	case logs := <-resCh:
		requireBitIdentical(t, want, logs)
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish")
	}
	st = co.Stats()
	if st.BreakerCloses != 1 {
		t.Fatalf("BreakerCloses = %d, want 1", st.BreakerCloses)
	}
	if s := co.SiteStats()["flaky"]; s.Breaker != "closed" || s.Strikes != 0 || s.Completions != 1 {
		t.Fatalf("site not rehabilitated: %+v", s)
	}
}

// TestJournalReplaySpeculativeLeasePair crashes a coordinator while a
// job holds both its original lease and a speculative hedge, then
// replays the journal: the pair must collapse to one pending job whose
// attempt counter sits above both leases, so any post-crash result
// passes the idempotency check, and the re-run campaign must stay
// bit-identical.
func TestJournalReplaySpeculativeLeasePair(t *testing.T) {
	spec := campaign.Spec{
		Kappas:     []float64{100},
		Velocities: []float64{800},
		Replicas:   1,
		Distance:   3,
		Seed:       21,
	}
	want := localBaseline(t, spec)
	stateDir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co1 := NewTestCoordinator(t, ln, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.HedgeFraction, c.HedgeAfter = 0.3, 20*time.Millisecond
		c.StateDir = stateDir
	})
	go func() {
		// Dies with the simulated crash; only the journal matters.
		_, _ = co1.Run(spec)
	}()
	addr := ln.Addr().String()

	// Original lease crawls until a hedge is granted on a second site.
	stuck := dialSiteClient(t, addr, "stuck-0", "congested")
	assign1 := stuck.next()
	jobID := assign1.Job.ID
	seedCrawl(t, co1, jobID, "healthy")
	deadline := time.Now().Add(10 * time.Second)
	for co1.Stats().StragglersDetected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("crawling lease never flagged")
		}
		stuck.rt(&request{Type: msgBeat, JobID: jobID, Attempt: assign1.Job.Attempt})
		time.Sleep(5 * time.Millisecond)
	}
	healthy := dialSiteClient(t, addr, "healthy-0", "healthy")
	assign2 := healthy.next()
	if assign2.Job.ID != jobID {
		t.Fatalf("hedge leased %s, want %s", assign2.Job.ID, jobID)
	}

	// Crash with the speculative pair in flight: listener closed, conns
	// severed, no shutdown path runs.
	ln.Close()
	stuck.conn.Close()
	healthy.conn.Close()

	// The journal must carry both lease records, the hedge marked as such.
	data, err := os.ReadFile(filepath.Join(stateDir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := trace.ScanRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var leases, hedges int
	for _, raw := range scan.Records {
		var r jrec
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.T != jLease {
			continue
		}
		leases++
		if r.Hedge {
			hedges++
			if r.Site != "healthy" {
				t.Fatalf("hedge lease journaled for site %q, want healthy", r.Site)
			}
		}
	}
	if leases != 2 || hedges != 1 {
		t.Fatalf("journal has %d lease records (%d hedges), want 2 (1)", leases, hedges)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co2 := NewTestCoordinator(t, ln2, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
	})
	t.Cleanup(func() { _ = co2.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co2, 1, nil)

	got, err := co2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)

	if st := co2.Stats(); st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
}
