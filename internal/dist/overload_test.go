package dist

// Unit tests for the coordinator's overload-protection layer: bounded
// send queues with slow-consumer eviction (and the lease-reattach
// recovery path), the global in-flight request cap with msgNext
// shedding, and heartbeat coalescing under load. The parked work poll —
// how an idle fleet waits without polling at all — is park_test.go's.

import (
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/trace"
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

// blockWrites is a WrapConn shim that parks coordinator→worker writes
// while blocked is set, releasing them when release is closed — the
// deterministic stand-in for a worker whose receive path stopped
// draining (full socket buffers, wedged process) while its send path
// still delivers requests.
type blockWrites struct {
	net.Conn
	blocked *atomic.Bool
	release chan struct{}
}

func (b *blockWrites) Write(p []byte) (int, error) {
	if b.blocked.Load() {
		<-b.release
	}
	return b.Conn.Write(p)
}

// TestSlowConsumerEvictionAndLeaseReattach pins the eviction contract
// end to end: a connection that stops draining responses is evicted
// once its bounded send queue fills, its lease survives, the worker's
// next connection re-attaches the lease with a heartbeat (an adoption,
// not a retry), and the campaign completes bit-identically — the
// eviction is invisible in the science.
func TestSlowConsumerEvictionAndLeaseReattach(t *testing.T) {
	spec := singleJobSpec()
	want := localBaseline(t, spec)

	var blocked atomic.Bool
	release := make(chan struct{})
	co := newCoordinator(t, func(cfg *Config) {
		cfg.SendQueue = 1
		cfg.WrapConn = func(c net.Conn) net.Conn {
			return &blockWrites{Conn: c, blocked: &blocked, release: release}
		}
	})

	done := make(chan struct{})
	var logs map[campaign.Combo][]*trace.WorkLog
	var runErr error
	go func() {
		defer close(done)
		logs, runErr = co.Run(spec)
	}()

	addr := co.Listener.Addr().String()
	c1 := dialTestClient(t, addr, "storm-w")
	var assign *response
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := c1.rt(&request{Type: msgNext})
		if resp.Type == msgAssign {
			assign = resp
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never assigned the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	jobID, attempt := assign.Job.ID, assign.Job.Attempt

	// Stop draining responses and pipeline three beats: the first's
	// reply parks the writer, the second fills the queue of one, the
	// third finds it full — eviction, not blocking.
	blocked.Store(true)
	for i := 0; i < 3; i++ {
		if err := c1.Encode(&request{Type: msgBeat, JobID: jobID, Attempt: attempt}); err != nil {
			t.Fatalf("beat %d: %v", i, err)
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for co.Stats().SlowConsumerEvictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow consumer never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	blocked.Store(false)
	close(release) // let the parked writer run into the closed conn and exit

	st := co.Stats()
	if st.SlowConsumerEvictions != 1 {
		t.Fatalf("SlowConsumerEvictions = %d, want 1", st.SlowConsumerEvictions)
	}
	if st.Disconnects != 0 {
		t.Fatalf("eviction revoked the lease: Disconnects = %d, want 0", st.Disconnects)
	}

	// The same worker reconnects and beats: the surviving lease must
	// re-attach (no abandon, no requeue), and the pull finishes on the
	// new pipe.
	c2 := dialTestClient(t, addr, "storm-w")
	if resp := c2.rt(&request{Type: msgBeat, JobID: jobID, Attempt: attempt}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("reattach beat answered %q (err %q), want clean ok", resp.Type, resp.Err)
	}
	if got := co.Stats().Adoptions; got < 1 {
		t.Fatalf("Adoptions = %d after reattach, want >= 1", got)
	}
	log := pullLog(t, assign)
	if resp := c2.rt(&request{Type: msgResult, JobID: jobID, Attempt: attempt, Log: log}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("result answered %q (err %q)", resp.Type, resp.Err)
	}

	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	requireBitIdentical(t, want, logs)
	if retries := co.Stats().Retries; retries != 0 {
		t.Fatalf("eviction caused %d retries, want 0 (lease survived)", retries)
	}
}

// TestInflightShedOverLimit pins the in-flight cap AND the property
// that makes it an overload valve: shedding never touches the
// scheduler lock. The test holds co.mu so two polls park inside
// assign, then proves a third poll is answered (shed, jittered hint)
// while the lock is still held.
func TestInflightShedOverLimit(t *testing.T) {
	co := newCoordinator(t, func(c *Config) { c.MaxInflight = 2 })
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

// TestHeartbeatCoalescingUnderLoad pins the coalescing fast path: with
// the coordinator at half its in-flight cap, a repeat heartbeat inside
// the coalesce window is answered from connection-local state, and the
// campaign still completes bit-identically.
func TestHeartbeatCoalescingUnderLoad(t *testing.T) {
	spec := singleJobSpec()
	want := localBaseline(t, spec)

	// One in-flight request counts as "half loaded".
	co := newCoordinator(t, func(c *Config) { c.MaxInflight = 2 })

	done := make(chan struct{})
	var logs map[campaign.Combo][]*trace.WorkLog
	var runErr error
	go func() {
		defer close(done)
		logs, runErr = co.Run(spec)
	}()

	c := dialTestClient(t, co.Listener.Addr().String(), "beater")
	var assign *response
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := c.rt(&request{Type: msgNext})
		if resp.Type == msgAssign {
			assign = resp
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never assigned the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	jobID, attempt := assign.Job.ID, assign.Job.Attempt

	// First beat goes through the scheduler and records the mark; the
	// immediate twin must be coalesced.
	if resp := c.rt(&request{Type: msgBeat, JobID: jobID, Attempt: attempt}); resp.Type != msgOK {
		t.Fatalf("first beat answered %q", resp.Type)
	}
	if resp := c.rt(&request{Type: msgBeat, JobID: jobID, Attempt: attempt}); resp.Type != msgOK {
		t.Fatalf("second beat answered %q", resp.Type)
	}
	if got := co.Stats().HeartbeatsCoalesced; got < 1 {
		t.Fatalf("HeartbeatsCoalesced = %d, want >= 1", got)
	}

	log := pullLog(t, assign)
	if resp := c.rt(&request{Type: msgResult, JobID: jobID, Attempt: attempt, Log: log}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("result answered %q (err %q)", resp.Type, resp.Err)
	}
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	requireBitIdentical(t, want, logs)
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

// TestCoalescingMarksBoundedByInflightJobs: a long-lived connection
// keeps one heartbeat-coalescing mark per job it is running, not per job
// it ever ran — a job's result or fail line, after which it never beats
// again, takes its mark away. 60 jobs go through one connection's
// dispatch, two in flight at a time.
func TestCoalescingMarksBoundedByInflightJobs(t *testing.T) {
	spec := singleJobSpec()
	spec.Replicas = 60
	co := newCoordinator(t, nil)
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(spec)
		done <- err
	}()
	for installed := false; !installed; time.Sleep(time.Millisecond) {
		co.mu.Lock()
		installed = len(co.leases.camps) == 1
		co.mu.Unlock()
	}

	cs := testConn("w", "w")
	now := time.Now()
	var inflight []*wireJob
	finished, assigned := 0, 0
	failing := map[string]bool{} // every tenth job fails its first attempt
	for finished < 60 {
		resp, answered := co.dispatch(cs, &request{Type: msgNext}, now)
		if !answered {
			// Parked: this loop is the connection's reader, and it polls again
			// rather than wait, so it withdraws the poll as a bound would.
			co.mu.Lock()
			co.unparkLocked(cs, now)
			co.mu.Unlock()
		}
		if resp.Type == msgAssign {
			inflight = append(inflight, resp.Job)
			if assigned++; assigned%10 == 3 {
				failing[resp.Job.ID] = true
			}
			if r, _ := co.dispatch(cs, &request{Type: msgBeat, JobID: resp.Job.ID, Attempt: resp.Job.Attempt}, now); r.Type != msgOK {
				t.Fatalf("beat for %s answered %q", resp.Job.ID, r.Type)
			}
			if len(inflight) < 2 && finished+len(inflight) < 60 {
				continue
			}
		} else if len(inflight) == 0 {
			// Only a job backing off after its fail line is left.
			now = now.Add(time.Second)
			continue
		}
		if len(cs.marks) != len(inflight) {
			t.Fatalf("%d marks with %d jobs in flight", len(cs.marks), len(inflight))
		}
		j := inflight[0]
		inflight = inflight[1:]
		req := &request{Type: msgResult, JobID: j.ID, Attempt: j.Attempt, Log: &trace.WorkLog{}}
		if failing[j.ID] {
			req = &request{Type: msgFail, JobID: j.ID, Attempt: j.Attempt, Err: "flaky"}
			delete(failing, j.ID)
		} else {
			finished++
		}
		if r, _ := co.dispatch(cs, req, now); r.Type != msgOK || r.Err != "" {
			t.Fatalf("%s for %s answered %q (err %q)", req.Type, j.ID, r.Type, r.Err)
		}
		if len(cs.marks) > len(inflight) {
			t.Fatalf("%d marks with %d jobs in flight after %s %s", len(cs.marks), len(inflight), req.Type, j.ID)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(cs.marks) != 0 {
		t.Fatalf("%d marks left after every job finished", len(cs.marks))
	}
}
