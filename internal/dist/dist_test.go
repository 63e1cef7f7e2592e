package dist

import (
	"context"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/md"
	"spice/internal/netsim"
	"spice/internal/obs"
	"spice/internal/trace"
)

// testSystem is the opaque payload shipped to workers; decoding it in
// the BuildFunc exercises the full plumb-through.
type testSystem struct {
	Beads int `json:"beads"`
}

func testBuild(system json.RawMessage, c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
	var sys testSystem
	if err := json.Unmarshal(system, &sys); err != nil {
		return nil, nil, err
	}
	spec := md.DefaultTranslocation(sys.Beads)
	spec.Seed = seed
	spec.DT = 0.02
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		return nil, nil, err
	}
	return ts.Engine, ts.DNA[:1], nil
}

// localBuild is the same system built directly, for the LocalRunner
// baseline the dist results must match bit for bit.
func localBuild(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
	return testBuild(json.RawMessage(`{"beads":3}`), c, seed)
}

func testSpec() campaign.Spec {
	return campaign.Spec{
		Kappas:     []float64{100, 1000},
		Velocities: []float64{800},
		Replicas:   2,
		Distance:   3,
		Seed:       21,
	}
}

// flattenWorks extracts every work sample grouped deterministically.
func flattenWorks(t *testing.T, logs map[campaign.Combo][]*trace.WorkLog) map[campaign.Combo][][]float64 {
	t.Helper()
	out := make(map[campaign.Combo][][]float64)
	for c, wls := range logs {
		for _, wl := range wls {
			ws := make([]float64, len(wl.Samples))
			for i, s := range wl.Samples {
				ws[i] = s.Work
			}
			out[c] = append(out[c], ws)
		}
	}
	return out
}

func requireBitIdentical(t *testing.T, want, got map[campaign.Combo][]*trace.WorkLog) {
	t.Helper()
	w, g := flattenWorks(t, want), flattenWorks(t, got)
	if len(w) != len(g) {
		t.Fatalf("combo counts differ: %d vs %d", len(w), len(g))
	}
	for c, reps := range w {
		if len(g[c]) != len(reps) {
			t.Fatalf("combo %s: %d replicas, want %d", c, len(g[c]), len(reps))
		}
		for r := range reps {
			if len(g[c][r]) != len(reps[r]) {
				t.Fatalf("combo %s replica %d: %d samples, want %d", c, r, len(g[c][r]), len(reps[r]))
			}
			for i := range reps[r] {
				if g[c][r][i] != reps[r][i] {
					t.Fatalf("combo %s replica %d sample %d: %v != %v (not bit-identical)",
						c, r, i, g[c][r][i], reps[r][i])
				}
			}
		}
	}
}

func localBaseline(t *testing.T, spec campaign.Spec) map[campaign.Combo][]*trace.WorkLog {
	t.Helper()
	lr := &campaign.LocalRunner{Build: localBuild, Workers: 1}
	logs, err := lr.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

// testConfig is the one place this package's tests get a Config:
// production Defaults() minus rate hedging (tests assert exact
// assignment and speculation counters, which a hedge fired by CI jitter
// would break) and with a short reconnect window (a test worker whose
// coordinator is gone must exit soon, not re-dial for ten seconds) —
// then the test's own overrides. Tests that ride out a coordinator
// restart set a long window.
func testConfig(override func(*Config)) Config {
	cfg := Defaults()
	cfg.HedgeFraction = 0
	cfg.ReconnectWindow = testReconnectWindow
	if override != nil {
		override(&cfg)
	}
	return cfg
}

// testReconnectWindow is testConfig's ReconnectWindow.
const testReconnectWindow = 100 * time.Millisecond

// NewTestCoordinator is NewCoordinator over testConfig. Exported so the
// external (package dist_test) suites share it.
func NewTestCoordinator(t testing.TB, ln net.Listener, system json.RawMessage, override func(*Config)) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(ln, system, testConfig(override))
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// LeaseEvents returns the lease_granted and lease_adopted events in
// events, oldest first: every job's lease history as the coordinator
// emitted it. It fails t if the ring has already dropped an event.
// Exported so the external (package dist_test) suites share it.
func LeaseEvents(t testing.TB, events *obs.EventLog) []obs.Event {
	t.Helper()
	all := events.Recent(0)
	if n := events.Seq(); int64(len(all)) < n {
		t.Fatalf("event ring holds %d of %d events: too small for this test", len(all), n)
	}
	var out []obs.Event
	for _, ev := range all {
		if ev.Name == "lease_granted" || ev.Name == "lease_adopted" {
			out = append(out, ev)
		}
	}
	return out
}

// RequireResumed fails t unless each job in ids was leased with its
// checkpoint (a lease_granted event with resumed set) or adopted by the
// worker still running it: none restarted from step 0.
func RequireResumed(t testing.TB, events *obs.EventLog, ids []string) {
	t.Helper()
	resumed := map[string]bool{}
	for _, ev := range LeaseEvents(t, events) {
		if r, _ := ev.Fields["resumed"].(bool); r || ev.Name == "lease_adopted" {
			resumed[ev.Job] = true
		}
	}
	for _, id := range ids {
		if !resumed[id] {
			t.Fatalf("job %s had a spooled checkpoint but restarted from step 0", id)
		}
	}
}

// NewTestWorker is NewWorker over testConfig.
func NewTestWorker(t testing.TB, name, site, addr string, build BuildFunc, override func(*Config)) *Worker {
	t.Helper()
	w, err := NewWorker(name, site, addr, build, testConfig(override))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// newCoordinator is the in-process fixture: a loopback listener, the
// 3-bead system and a 2s lease TTL, closed with the test.
func newCoordinator(t *testing.T, override func(*Config)) *Coordinator {
	t.Helper()
	return newCoordinatorWrapped(t, nil, override)
}

// newCoordinatorWrapped is newCoordinator with a QoS shim on its
// listener: every accepted connection passes through wrap, inside the
// coordinator's own I/O deadlines. A nil wrap serves the socket itself.
func newCoordinatorWrapped(t *testing.T, wrap func(net.Conn) net.Conn, override func(*Config)) *Coordinator {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = shimListener{ln, wrap}
	}
	co := NewTestCoordinator(t, ln, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		if override != nil {
			override(c)
		}
	})
	// Cleanups run after the test's defers, i.e. after worker contexts
	// are cancelled, so Close sees the connections drain quickly.
	t.Cleanup(func() { _ = co.Close() })
	return co
}

// shimListener passes every connection it accepts through wrap — the
// seat of a coordinator-side QoS shim.
type shimListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l shimListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// startWorker runs one test-scale worker (20ms beats, a checkpoint
// every 2 samples) against co until ctx is cancelled.
func startWorker(t *testing.T, ctx context.Context, co *Coordinator, name string, override func(*Config)) *Worker {
	t.Helper()
	w := NewTestWorker(t, name, "", co.Listener.Addr().String(), testBuild, func(c *Config) {
		c.BeatInterval = 20 * time.Millisecond
		c.CheckpointEvery = 2
		if override != nil {
			override(c)
		}
	})
	go w.Run(ctx)
	return w
}

func startWorkers(t *testing.T, ctx context.Context, co *Coordinator, n int, override func(i int, c *Config)) {
	t.Helper()
	for i := 0; i < n; i++ {
		startWorker(t, ctx, co, "w", func(c *Config) {
			if override != nil {
				override(i, c)
			}
		})
	}
}

// TestCoordinatorMatchesLocalRunner is the core guarantee: a sweep
// executed across worker processes merges to output bit-identical to a
// single-process run.
func TestCoordinatorMatchesLocalRunner(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	events := obs.NewEventLog(nil, 1<<10)
	co := newCoordinator(t, func(c *Config) { c.Events = events })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 3, nil)

	got, err := co.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)

	st := co.Stats()
	if st.Jobs != len(spec.Tasks()) {
		t.Fatalf("stats.Jobs = %d, want %d", st.Jobs, len(spec.Tasks()))
	}
	if st.Assignments < st.Jobs {
		t.Fatalf("stats.Assignments = %d < %d jobs", st.Assignments, st.Jobs)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("byte counters not moving: %+v", st)
	}
	leases := LeaseEvents(t, events)
	jobs := map[string]bool{}
	for _, ev := range leases {
		if ev.Job == "" || ev.Worker == "" || ev.Attempt < 1 {
			t.Fatalf("lease event %d does not name its job, worker and attempt: %+v", ev.Seq, ev)
		}
		jobs[ev.Job] = true
	}
	if len(jobs) != st.Jobs {
		t.Fatalf("lease events name %d jobs, want %d", len(jobs), st.Jobs)
	}
	if n := events.Count("lease_granted"); n != int64(st.Assignments) {
		t.Fatalf("event log saw %d lease_granted, stats say %d assignments", n, st.Assignments)
	}
}

// TestIdleWorkerServedBeforeFirstCampaign pins that a constructed
// coordinator is a serving coordinator: a worker that attaches before
// anything was submitted gets its hello answered at once and idles on
// parked polls, instead of sitting unanswered in the listen backlog until
// its I/O timeout and reconnect window run out. The fleet shares one I/O
// timeout: the coordinator parks a poll for at most half of it.
func TestIdleWorkerServedBeforeFirstCampaign(t *testing.T) {
	const ioTimeout, window = 300 * time.Millisecond, 300 * time.Millisecond
	co := newCoordinator(t, func(c *Config) { c.IOTimeout = ioTimeout })
	w := NewTestWorker(t, "early", "", co.Listener.Addr().String(), testBuild, func(c *Config) {
		c.BeatInterval = 20 * time.Millisecond
		c.IOTimeout = ioTimeout
		c.ReconnectWindow = window
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exited := make(chan error, 1)
	go func() { exited <- w.Run(ctx) }()

	for deadline := time.Now().Add(time.Second); co.Stats().ConnectedWorkers != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no worker connected within 1s of dialing a coordinator that has run no campaign")
		}
	}
	select {
	case err := <-exited:
		t.Fatalf("idle worker gave up before any campaign: %v", err)
	case <-time.After(2 * (ioTimeout + window)):
	}
	if n := w.WorkerStats().Reconnects; n != 0 {
		t.Fatalf("idle worker re-dialed %d times: a park outlasted its read watchdog", n)
	}
	cancel()
	if err := <-exited; err != nil {
		t.Fatalf("idle worker did not exit cleanly: %v", err)
	}
}

// TestLeaseExpiryReassigns takes a job with a hand-rolled client that
// never heartbeats; the janitor must revoke the lease and a real worker
// must finish the campaign with identical results.
func TestLeaseExpiryReassigns(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	co := newCoordinator(t, func(c *Config) {
		c.LeaseTTL, c.BeatInterval = 100*time.Millisecond, 20*time.Millisecond
	})

	done := make(chan struct{})
	resCh := make(chan map[campaign.Combo][]*trace.WorkLog, 1)
	errCh := make(chan error, 1)
	go func() {
		defer close(done)
		logs, err := co.Run(spec)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- logs
	}()

	// The silent client: hello, grab a job, never beat.
	silent := dialTestClient(t, co.Listener.Addr().String(), "silent")
	resp := silent.rt(&request{Type: msgNext})
	if resp.Type != msgAssign {
		t.Fatalf("silent client got %q, want assign", resp.Type)
	}

	// Wait for the janitor to revoke the silent lease before starting
	// honest workers, so the reassignment path is actually exercised.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := co.Stats(); st.LeaseExpiries > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, nil)

	select {
	case logs := <-resCh:
		requireBitIdentical(t, want, logs)
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish after lease expiry")
	}
	st := co.Stats()
	if st.LeaseExpiries < 1 {
		t.Fatalf("expected a lease expiry, stats = %+v", st)
	}
	if st.Retries < 1 {
		t.Fatalf("expected a retry after expiry, stats = %+v", st)
	}
}

// TestCheckpointResumeOnWorkerLoss kills a throttled worker once its
// first checkpoints have streamed back, then lets fresh workers finish.
// The resumed jobs must still be bit-identical to the local baseline —
// the end-to-end proof that checkpointed migration is exact.
func TestCheckpointResumeOnWorkerLoss(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	co := newCoordinator(t, nil)

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

	// A slow worker: checkpoints at every sample and naps on each, so it
	// is guaranteed to be mid-job when we cut it down.
	slowCtx, killSlow := context.WithCancel(context.Background())
	defer killSlow()
	startWorker(t, slowCtx, co, "doomed", func(c *Config) {
		c.CheckpointEvery = 1
		c.Throttle = 30 * time.Millisecond
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := co.Stats(); st.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint ever streamed back")
		}
		time.Sleep(5 * time.Millisecond)
	}
	killSlow() // the worker abandons; its conn drop requeues the job

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, nil)

	select {
	case logs := <-resCh:
		requireBitIdentical(t, want, logs)
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish after worker loss")
	}
	st := co.Stats()
	if st.Resumes < 1 {
		t.Fatalf("expected a checkpoint resume, stats = %+v", st)
	}
	if st.Checkpoints < 1 {
		t.Fatalf("expected streamed checkpoints, stats = %+v", st)
	}
}

// TestQoSShimTransport routes every connection through netsim WAN
// shims on both sides; the campaign must still complete identically.
func TestQoSShimTransport(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	var shimSeed atomic.Uint64
	co := newCoordinatorWrapped(t, func(c net.Conn) net.Conn {
		return netsim.NewShim(c, netsim.SharedWAN, 0.01, shimSeed.Add(1))
	}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, func(i int, cfg *Config) {
		cfg.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return netsim.NewShim(c, netsim.SharedWAN, 0.01, uint64(100+i)), nil
		}
	})

	got, err := co.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)
}

// TestCoordinatorEmptySpec drains immediately.
func TestCoordinatorEmptySpec(t *testing.T) {
	co := newCoordinator(t, nil)
	logs, err := co.Run(campaign.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 0 {
		t.Fatalf("empty spec produced %d combos", len(logs))
	}
	co.Listener.Close()
}

// TestCoordinatorRunsConsecutiveCampaigns exercises the long-lived
// server path core.RunSweep depends on: the same coordinator and the
// same worker fleet execute two campaigns back to back, and workers
// drain cleanly on Close.
func TestCoordinatorRunsConsecutiveCampaigns(t *testing.T) {
	specA := testSpec()
	specB := testSpec()
	specB.Seed = 77
	wantA := localBaseline(t, specA)
	wantB := localBaseline(t, specB)

	co := newCoordinator(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, nil)

	gotA, err := co.Run(specA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := co.Run(specB)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, wantA, gotA)
	requireBitIdentical(t, wantB, gotB)

	if err := co.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := co.Run(specA); err == nil {
		t.Fatal("Run after Close should fail")
	}
}
