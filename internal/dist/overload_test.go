package dist

// Unit tests for the coordinator's overload-protection layer: the global
// in-flight request cap with msgNext shedding, a peer that stops reading
// its replies, and shutdown mid-stream. The parked work poll — how an
// idle fleet waits without polling at all — is park_test.go's.

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/trace"
	"spice/internal/wire"
)

func singleJobSpec() campaign.Spec {
	return campaign.Spec{
		Kappas:     []float64{100},
		Velocities: []float64{800},
		Replicas:   1,
		Distance:   3,
		Seed:       21,
	}
}

// TestInflightShedOverLimit pins the in-flight cap AND the property
// that makes it an overload valve: shedding never touches the
// scheduler lock. The test holds co.mu so two polls park inside
// assign, then proves a third poll is answered (shed, jittered hint)
// while the lock is still held. The short IOTimeout bounds the two polls'
// park at 100 ms instead of LeaseTTL/2.
func TestInflightShedOverLimit(t *testing.T) {
	co := newCoordinator(t, func(c *Config) {
		c.MaxInflight = 2
		c.IOTimeout = 200 * time.Millisecond
	})
	addr := co.Listener.Addr().String()

	a := dialTestClient(t, addr, "pa")
	b := dialTestClient(t, addr, "pb")
	c := dialTestClient(t, addr, "pc")

	// Stall the scheduler: the first two polls enter assign and block
	// on the mutex, pinning the in-flight gauge at the cap.
	co.mu.Lock()
	if err := a.Encode(&request{Type: msgNext}); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&request{Type: msgNext}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for co.inflight.Load() < 2 {
		if time.Now().After(deadline) {
			co.mu.Unlock()
			t.Fatalf("in-flight gauge stuck at %d", co.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// The third poll is over the cap: it must come back shed — while
	// the scheduler lock is still held, which is only possible if the
	// shed path never takes it.
	shed := c.rt(&request{Type: msgNext})
	if shed.Type != msgWait || shed.DelayMs < 1 {
		t.Fatalf("over-cap poll answered %+v, want jittered wait", shed)
	}
	if got := co.shed.Load(); got != 1 {
		co.mu.Unlock()
		t.Fatalf("shed counter = %d, want 1", got)
	}
	co.mu.Unlock()

	// The parked polls drain normally once the scheduler frees up.
	for _, cl := range []*testClient{a, b} {
		var resp response
		if err := cl.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Type != msgWait || resp.DelayMs < 1 {
			t.Fatalf("parked poll answered %+v, want wait", resp)
		}
	}
	if st := co.Stats(); st.RequestsShed != 1 || st.InflightRequests != 0 {
		t.Fatalf("final stats: shed %d inflight %d, want 1 and 0", st.RequestsShed, st.InflightRequests)
	}
}

// TestCoordinatorCloseMidCheckpointStream is the shutdown regression:
// Close while a worker is mid-checkpoint-stream must drain cleanly —
// no panic, no wedged writer goroutines — and the process goroutine
// count returns to its baseline once the workers give up.
func TestCoordinatorCloseMidCheckpointStream(t *testing.T) {
	baseline := runtime.NumGoroutine()

	co := newCoordinator(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, func(i int, c *Config) {
		c.CheckpointEvery = 1
		c.Throttle = 20 * time.Millisecond
	})

	done := make(chan error, 1)
	go func() {
		_, err := co.Run(testSpec())
		done <- err
	}()

	deadline := time.Now().Add(30 * time.Second)
	for co.Stats().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint ever streamed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := co.Close(); err != nil {
		t.Fatalf("Close mid-checkpoint: %v", err)
	}
	if err := <-done; err == nil {
		t.Fatal("Run returned nil after Close cut the campaign short")
	}
	cancel() // release the workers

	deadline = time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after Close: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlowConsumerEvictionAndLeaseReattach pins the recovery contract
// for a connection that stops draining replies: it is evicted at the
// IOTimeout write deadline (a disconnect — the job goes back to pending),
// the worker's next connection re-attaches the lease with a heartbeat
// (an adoption under its own attempt, not a retry), and the campaign
// completes bit-identically — the eviction is invisible in the science.
func TestSlowConsumerEvictionAndLeaseReattach(t *testing.T) {
	const ioTimeout = 200 * time.Millisecond
	spec := singleJobSpec()
	want := localBaseline(t, spec)

	co := newCoordinator(t, func(c *Config) { c.IOTimeout = ioTimeout })
	done := make(chan struct{})
	var logs map[campaign.Combo][]*trace.WorkLog
	var runErr error
	go func() {
		defer close(done)
		logs, runErr = co.Run(spec)
	}()
	for deadline := time.Now().Add(5 * time.Second); len(co.Campaigns()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never installed")
		}
	}

	srv, cli := net.Pipe()
	defer cli.Close()
	served := make(chan struct{})
	go func() {
		co.serveConn(srv)
		srv.Close()
		close(served)
	}()
	c1, err := wire.Open(cli, cli, "storm-w", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Encode(&request{Type: msgNext}); err != nil {
		t.Fatal(err)
	}
	var assign response
	if err := c1.Decode(&assign); err != nil || assign.Type != msgAssign {
		t.Fatalf("poll answered %+v (%v), want the job", assign, err)
	}
	jobID, attempt := assign.Job.ID, assign.Job.Attempt

	// Stop draining replies and pipeline beats: the first beat's reply
	// parks the reader in its write until the deadline evicts the peer.
	beat := &request{Type: msgBeat, JobID: jobID, Attempt: attempt}
	var pipelining sync.WaitGroup
	pipelining.Add(1)
	go func() {
		defer pipelining.Done()
		for c1.Encode(beat) == nil {
		}
	}()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("slow consumer never evicted")
	}
	pipelining.Wait()
	if st := co.Stats(); st.Disconnects != 1 {
		t.Fatalf("eviction: Disconnects = %d, want 1", st.Disconnects)
	}

	// The same worker reconnects and beats: the pending job's lease must
	// re-attach (ok, an adoption, no retry), and the pull finishes on the
	// new connection. The log is computed first so the connection never
	// idles past its read deadline.
	log := pullLog(t, &assign)
	c2 := dialTestClient(t, co.Listener.Addr().String(), "storm-w")
	if resp := c2.rt(beat); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("reattach beat answered %q (err %q), want clean ok", resp.Type, resp.Err)
	}
	if got := co.Stats().Adoptions; got != 1 {
		t.Fatalf("Adoptions = %d after reattach, want 1", got)
	}
	if resp := c2.rt(&request{Type: msgResult, JobID: jobID, Attempt: attempt, Log: log}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("result answered %q (err %q)", resp.Type, resp.Err)
	}

	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	requireBitIdentical(t, want, logs)
	if retries := co.Stats().Retries; retries != 0 {
		t.Fatalf("eviction caused %d retries, want 0 (the lease re-attached)", retries)
	}
}

// TestNonDrainingPeerDisconnects pins the reply path against a peer that
// stops reading. The protocol is lock-step, so the reader writes each
// reply itself under the IOTimeout write deadline: a worker that
// pipelines beats without reading its replies ties up only its own
// connection, and only until the deadline — then it is a disconnect like
// any dead link, and its job runs again on a live worker, bit-identical
// to LocalRunner. The stuck peer is one end of a net.Pipe (unbuffered,
// deadline-honouring) served straight through serveConn.
func TestNonDrainingPeerDisconnects(t *testing.T) {
	const ioTimeout = 200 * time.Millisecond
	spec := singleJobSpec()
	spec.Replicas = 2
	want := localBaseline(t, spec)
	baseline := runtime.NumGoroutine()

	co := newCoordinator(t, func(c *Config) { c.IOTimeout = ioTimeout })
	done := make(chan struct{})
	var logs map[campaign.Combo][]*trace.WorkLog
	var runErr error
	go func() {
		defer close(done)
		logs, runErr = co.Run(spec)
	}()
	for deadline := time.Now().Add(5 * time.Second); len(co.Campaigns()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never installed")
		}
	}

	srv, cli := net.Pipe()
	defer cli.Close()
	served := make(chan struct{})
	go func() {
		co.serveConn(srv)
		srv.Close()
		close(served)
	}()
	stuck, err := wire.Open(cli, cli, "stuck", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stuck.Encode(&request{Type: msgNext}); err != nil {
		t.Fatal(err)
	}
	var assign response
	if err := stuck.Decode(&assign); err != nil || assign.Type != msgAssign {
		t.Fatalf("stuck peer's poll answered %+v (%v), want a job", assign, err)
	}
	// The pipe hands the first beat over only when the reader takes it;
	// from then on the reader is writing a reply nobody reads, and the
	// beats behind it queue in the peer.
	beat := &request{Type: msgBeat, JobID: assign.Job.ID, Attempt: assign.Job.Attempt}
	if err := stuck.Encode(beat); err != nil {
		t.Fatal(err)
	}
	stuckAt := time.Now()
	var pipelining sync.WaitGroup
	pipelining.Add(1)
	go func() {
		defer pipelining.Done()
		for stuck.Encode(beat) == nil {
		}
	}()

	// Another connection is served meanwhile — the blocked write holds no
	// lock. It takes the second job and returns its known result at once,
	// well inside its own read deadline.
	other := dialTestClient(t, co.Listener.Addr().String(), "other")
	second := other.rt(&request{Type: msgNext})
	select {
	case <-served:
		t.Fatal("the stuck connection ended before another connection's poll was answered")
	default:
	}
	if second.Type != msgAssign {
		t.Fatalf("second connection's poll answered %+v, want the other job", second)
	}
	result := &request{Type: msgResult, JobID: second.Job.ID, Attempt: second.Job.Attempt,
		Log: want[second.Job.Combo][second.Job.Index]}
	if resp := other.rt(result); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("result answered %q (err %q)", resp.Type, resp.Err)
	}
	other.conn.Close()

	select {
	case <-served:
	case <-time.After(time.Until(stuckAt.Add(5 * ioTimeout))):
		t.Fatalf("a peer that stopped reading still held its connection after %v", time.Since(stuckAt))
	}
	pipelining.Wait()
	if st := co.Stats(); st.Disconnects != 1 || st.LeaseExpiries != 0 {
		t.Fatalf("after the stuck write: %d disconnects, %d lease expiries; want 1 and 0", st.Disconnects, st.LeaseExpiries)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, co, "live", nil)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("requeued job never completed: %+v", co.Stats())
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	requireBitIdentical(t, want, logs)

	cancel()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
