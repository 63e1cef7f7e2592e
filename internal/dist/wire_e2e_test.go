package dist

// End-to-end tests for the wire transport: the full v1 transport (binary
// framing, compression, delta checkpoints) must merge campaign output
// bit-identical to a single-process LocalRunner, the delta-checkpoint
// fold must survive worker loss and coordinator crashes, a hand-rolled
// client pins the NeedFull healing protocol byte by byte, and neither a
// malformed checkpoint nor an undecodable resume image may take a
// worker down.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/netsim"
	"spice/internal/trace"
	"spice/internal/wire"
)

// v1Worker makes a startWorkers-spawned worker stream a checkpoint per
// sample (throttled so several heartbeats fit inside one job).
func v1Worker(c *Config) {
	c.CheckpointEvery = 1
	c.Throttle = 10 * time.Millisecond
}

// TestWireMatrixBitIdentical runs the transport every peer speaks —
// binary framing, deltas and compression — and requires the merged PMF
// inputs to be bit-identical to the LocalRunner baseline, with deltas
// actually folding and the raw/wire byte ratio showing the transport
// doing work. (Peers that offer no version are refused at the hello:
// wire.TestHelloGolden and TestWireV1ClientFoldAndNeedFull.)
func TestWireMatrixBitIdentical(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	t.Run("v1-delta-compression", func(t *testing.T) {
		const workers = 3
		co := newCoordinator(t, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ws []*Worker
		for i := 0; i < workers; i++ {
			ws = append(ws, startWorker(t, ctx, co, "w", v1Worker))
		}
		got, err := co.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, want, got)
		// The spec is ~10 ms of work, so Run can return before the last
		// worker's hello has been served; the server keeps accepting, and
		// the connection count settles once it has.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if co.Stats().WireV1Conns >= workers {
				break
			}
		}
		st := co.Stats()
		if st.WireV1Conns < workers {
			t.Fatalf("WireV1Conns = %d, want >= %d", st.WireV1Conns, workers)
		}
		if st.DeltasFolded < 1 {
			t.Fatalf("no deltas folded: %+v", st)
		}
		var raw, sent int64
		for _, w := range ws {
			ws := w.WorkerStats()
			raw += ws.CheckpointRawBytes
			sent += ws.CheckpointBytes
		}
		if raw == 0 || sent >= raw {
			t.Fatalf("checkpoint bytes: %d on the wire for %d raw, want a reduction", sent, raw)
		}
	})
}

// cancelCampaign cancels a campaign whose job ran on synthetic
// checkpoints, so nothing is ever re-executed from them, and waits for
// its Run to return.
func cancelCampaign(t *testing.T, co *Coordinator, spec campaign.Spec, errCh <-chan error) {
	t.Helper()
	key, err := SpecKey(spec, CampaignTag{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := co.CancelCampaign(key); !ok || err != nil {
		t.Fatalf("CancelCampaign = %v, %v: found no campaign", ok, err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCampaignCanceled) {
			t.Fatalf("Run returned %v, want ErrCampaignCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled campaign never returned")
	}
}

// TestWireV1ClientFoldAndNeedFull drives the delta protocol with a
// hand-rolled v1 client, pinning the healing handshake: a delta against
// a base the coordinator does not hold is answered OK+NeedFull (never
// an error), a full image re-seeds the base, and a well-formed delta is
// folded so the coordinator's stored image equals the client's
// post-delta document byte for byte. A client offering an unknown
// future version is granted v1; one offering no version is refused.
func TestWireV1ClientFoldAndNeedFull(t *testing.T) {
	spec := testSpec()
	co := newCoordinator(t, nil)

	errCh := make(chan error, 1)
	go func() {
		_, err := co.Run(spec)
		errCh <- err
	}()
	addr := co.Listener.Addr().String()
	c := dialTestClient(t, addr, "hand-v1")

	assign := c.next()
	jobID, attempt := assign.Job.ID, assign.Job.Attempt

	// Synthetic checkpoint documents with advancing step counters, so
	// every fold passes the coordinator's farthest-wins gate. Each holds
	// the least a resume needs (smd.PullCheckpoint.Validate): an engine
	// image, one sample and a next sample index.
	ck := func(steps int) []byte {
		return []byte(fmt.Sprintf(`{"Engine":{"Step":%d,"Pos":[{"X":1.5,"Y":2.5,"Z":%d}]},"Samples":[{"Lambda":0}],"Steps":%d,"Next":1}`, steps, steps, steps))
	}
	progress := func(p *wire.Payload) *response {
		t.Helper()
		return c.rt(&request{Type: msgProgress, JobID: jobID, Attempt: attempt, Ckpt: p})
	}

	// 1. First checkpoint travels complete (compressed): plain fold.
	ck1 := ck(4)
	if resp := progress(wire.Compress(ck1)); resp.Type != msgOK || resp.NeedFull || resp.Err != "" {
		t.Fatalf("full checkpoint rejected: %+v", resp)
	}
	// 2. A delta against a base the coordinator never held: OK+NeedFull,
	// counted as a base miss, never an error or a torn fold.
	ck2 := ck(8)
	if resp := progress(wire.Delta([]byte(`{"steps":0}`), ck2)); resp.Type != msgOK || !resp.NeedFull {
		t.Fatalf("bogus-base delta: %+v, want OK+NeedFull", resp)
	}
	if st := co.Stats(); st.DeltaBaseMisses != 1 {
		t.Fatalf("DeltaBaseMisses = %d, want 1", st.DeltaBaseMisses)
	}
	// 3. The client obeys NeedFull and re-seeds with a complete image.
	if resp := progress(wire.Compress(ck2)); resp.Type != msgOK || resp.NeedFull {
		t.Fatalf("re-seeding full checkpoint: %+v", resp)
	}
	// 4. A well-formed delta folds cleanly.
	ck3 := ck(12)
	if resp := progress(wire.Delta(ck2, ck3)); resp.Type != msgOK || resp.NeedFull {
		t.Fatalf("valid delta: %+v, want plain OK", resp)
	}
	if st := co.Stats(); st.DeltasFolded < 1 {
		t.Fatalf("DeltasFolded = %d, want >= 1", st.DeltasFolded)
	}
	// The folded image the coordinator would hand a resuming worker must
	// equal the client's post-delta document exactly.
	co.mu.Lock()
	var folded []byte
	if j := co.leases.jobsByID[jobID]; j != nil {
		folded = append([]byte(nil), j.ckpt...)
	}
	co.mu.Unlock()
	if !bytes.Equal(folded, ck3) {
		t.Fatalf("folded image %q, want %q", folded, ck3)
	}

	// A peer from the future offers a version this build does not know:
	// it is granted v1 like every other and counted. A peer offering no
	// version is refused with one error line and never counted.
	for _, tc := range []struct{ hello, reply string }{
		{`{"type":"hello","name":"futuristic","wire":99}`, `"wire":1,"delta":true,"comp":true}`},
		{`{"type":"hello","name":"unversioned"}`, `{"type":"ok","err":"wire: hello offers no version; v1 is required"}`},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprintln(conn, tc.hello); err != nil {
			t.Fatal(err)
		}
		if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.HasSuffix(line, tc.reply+"\n") {
			t.Fatalf("hello %s answered %q (%v), want a line ending %s", tc.hello, line, err, tc.reply)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); co.Stats().WireV1Conns < 2 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
	}
	if st := co.Stats(); st.WireV1Conns != 2 {
		t.Fatalf("WireV1Conns = %d, want the hand client and the future peer", st.WireV1Conns)
	}
	cancelCampaign(t, co, spec, errCh)
}

// TestMalformedCheckpointRejected: a progress payload that resolves but
// is no checkpoint document is refused like a broken delta — answered
// NeedFull, counted, and never stored or spooled — so it can never
// become the resume image that every later worker of the job fails on.
func TestMalformedCheckpointRejected(t *testing.T) {
	spec := testSpec()
	stateDir := t.TempDir()
	co := newCoordinator(t, func(c *Config) { c.StateDir = stateDir })
	errCh := make(chan error, 1)
	go func() {
		_, err := co.Run(spec)
		errCh <- err
	}()
	c := dialTestClient(t, co.Listener.Addr().String(), "hand")
	assign := c.next()
	for i, p := range []*wire.Payload{
		wire.Compress([]byte("garbage")),
		wire.Compress([]byte(`{"Steps":"many"}`)),
		wire.Compress([]byte(`null`)),
		wire.Compress([]byte(`{}`)),
		wire.Compress([]byte(`{"Steps":3}`)),
	} {
		resp := c.rt(&request{Type: msgProgress, JobID: assign.Job.ID, Attempt: assign.Job.Attempt, Ckpt: p})
		if resp.Type != msgOK || !resp.NeedFull {
			t.Fatalf("malformed checkpoint %q answered %+v, want OK+NeedFull", p.Data, resp)
		}
		if st := co.Stats(); st.CheckpointsRejected != i+1 || st.Checkpoints != 0 {
			t.Fatalf("after %q: CheckpointsRejected %d, Checkpoints %d", p.Data, st.CheckpointsRejected, st.Checkpoints)
		}
	}
	co.mu.Lock()
	stored := co.leases.jobsByID[assign.Job.ID].ckpt
	co.mu.Unlock()
	if len(stored) != 0 {
		t.Fatalf("coordinator stored %q as the job's resume image", stored)
	}
	if spooled := spooledCheckpoints(t, stateDir); len(spooled) != 0 {
		t.Fatalf("malformed checkpoints spooled for %v", spooled)
	}
	cancelCampaign(t, co, spec, errCh)
}

// TestUndecodableResumeFailsJob: a resume image the worker cannot
// decode fails that attempt — reported as a fail for the job and
// attempt it was granted — and the worker goes back to polling instead
// of ending its session. The coordinator is a fake built on wire.Accept
// so it can hand out an image no real coordinator would store.
func TestUndecodableResumeFailsJob(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewTestWorker(t, "w", "", ln.Addr().String(), testBuild, nil)
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess, err := wire.Accept(conn, conn, []byte(`{"beads":3}`))
	if err != nil {
		t.Fatal(err)
	}
	// answer reads the worker's next request, requires its type, and
	// sends resp back.
	answer := func(want string, resp *response) *request {
		t.Helper()
		var req request
		if err := sess.Decode(&req); err != nil {
			t.Fatal(err)
		}
		if req.Type != want {
			t.Fatalf("worker sent %+v, want %q", req, want)
		}
		if err := sess.Encode(resp); err != nil {
			t.Fatal(err)
		}
		return &req
	}
	spec := singleJobSpec()
	job := &wireJob{ID: "j0", Combo: spec.Combos()[0], Seed: 5, Attempt: 3}
	answer(msgNext, &response{Type: msgAssign, Job: job, Spec: &spec, Resume: wire.Compress([]byte("garbage"))})
	fail := answer(msgFail, &response{Type: msgOK})
	if fail.JobID != job.ID || fail.Attempt != job.Attempt || !strings.Contains(fail.Err, "resume checkpoint") {
		t.Fatalf("worker failed %+v, want job %s attempt %d on its resume checkpoint", fail, job.ID, job.Attempt)
	}
	answer(msgNext, &response{Type: msgDrained})
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("worker ended with %v, want a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never drained")
	}
}

// TestRefusedGrantNotRedialed: a hello refused for its protocol is
// policy, not weather — the worker reports it without re-dialing, even
// with a long reconnect window.
func TestRefusedGrantNotRedialed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w := NewTestWorker(t, "w", "", ln.Addr().String(), testBuild, func(c *Config) { c.ReconnectWindow = 10 * time.Second })
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background()) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	// The grant of a coordinator that speaks no version.
	if _, err := fmt.Fprintln(conn, `{"type":"ok","system":{"beads":3}}`); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, wire.ErrRefused) {
			t.Fatalf("worker ended with %v, want ErrRefused", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("refused worker kept running")
	}
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if again, err := ln.Accept(); err == nil {
		again.Close()
		t.Fatal("refused worker re-dialed")
	}
}

// TestDeltaFoldResumeOnWorkerLoss kills a v1 delta-checkpointing worker
// after its deltas have folded, then lets fresh v1 workers resume from
// the folded images. Bit-identical output proves fold-before-spool
// reconstructs exact resume state — the delta path never ships a
// checkpoint the scheduler could not hand to a different worker.
func TestDeltaFoldResumeOnWorkerLoss(t *testing.T) {
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

	doomedCtx, killDoomed := context.WithCancel(context.Background())
	defer killDoomed()
	startWorker(t, doomedCtx, co, "doomed-v1", func(c *Config) {
		v1Worker(c)
		c.Throttle = 30 * time.Millisecond
	})

	// Only kill once at least one delta has folded, so the checkpoint a
	// successor resumes from was reconstructed, not received whole.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := co.Stats(); st.DeltasFolded > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delta ever folded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	killDoomed()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, func(i int, c *Config) { v1Worker(c) })

	select {
	case logs := <-resCh:
		requireBitIdentical(t, want, logs)
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish after v1 worker loss")
	}
	st := co.Stats()
	if st.Resumes < 1 {
		t.Fatalf("expected a resume from a folded checkpoint, stats = %+v", st)
	}
	if st.DeltasFolded < 1 {
		t.Fatalf("expected folded deltas, stats = %+v", st)
	}
}

// TestDeltaFoldCrashRestart is the journal-recovery test on the v1
// transport: the coordinator is crashed (SIGKILL-shaped: listener gone,
// connections black-holed) after delta checkpoints have folded into the
// spool, and a fresh coordinator over the same state directory must
// finish the campaign bit-identically from those folded images. Workers
// reconnect mid-delta-chain; the CRC check on their next delta either
// matches the replayed base or heals through OK+NeedFull.
func TestDeltaFoldCrashRestart(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)
	stateDir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	gate := netsim.NewGate()
	co1 := NewTestCoordinator(t, shimListener{ln, gate.Wrap}, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
	})
	go func() {
		// Dies with the simulated crash; only its journal and spool
		// survive into the second act.
		_, _ = co1.Run(spec)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := NewTestWorker(t, fmt.Sprintf("survivor-v1-%d", i), "", addr, testBuild, func(c *Config) {
			c.BeatInterval = 20 * time.Millisecond
			c.CheckpointEvery = 1
			c.Throttle = 20 * time.Millisecond
			c.ReconnectWindow = 30 * time.Second
		})
		go w.Run(ctx)
	}

	// Crash only after both jobs have spooled checkpoints AND at least
	// one spooled image came out of a delta fold.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if len(spooledCheckpoints(t, stateDir)) >= 2 && co1.Stats().DeltasFolded > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("folded checkpoints never reached the spool (stats %+v)", co1.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ln.Close()
	gate.Blackhole(0)

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	co2 := NewTestCoordinator(t, ln2, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
	})
	t.Cleanup(func() { _ = co2.Close() })

	got, err := co2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)

	st := co2.Stats()
	if st.Restarts != 1 {
		t.Fatalf("stats.Restarts = %d, want 1", st.Restarts)
	}
	if st.Resumes+st.Adoptions < 1 {
		t.Fatalf("nothing resumed or adopted after the crash, stats = %+v", st)
	}
}
