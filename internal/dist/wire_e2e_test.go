package dist

// End-to-end tests for the versioned wire transport: every cell of the
// version matrix (old↔new in both directions, mixed fleets) must merge
// campaign output bit-identical to a single-process LocalRunner, the
// delta-checkpoint fold must survive worker loss and coordinator
// crashes, and a hand-rolled v1 client pins the NeedFull healing
// protocol byte by byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/netsim"
	"spice/internal/trace"
	"spice/internal/wire"
)

// v0Side pins one side of a connection to the legacy JSON-lines
// transport, the way an un-upgraded binary offers or grants it.
func v0Side(c *Config) {
	c.WireVersion = wire.V0
	c.Compression = false
	c.DeltaCheckpoints = false
}

// v1Side is the full v1 transport: binary framing, compression, delta
// checkpoints. Defaults() already says so; the version tests state it.
func v1Side(c *Config) {
	c.WireVersion = wire.V1
	c.Compression = true
	c.DeltaCheckpoints = true
}

// v1Worker makes a startWorkers-spawned worker a full v1 client with a
// checkpoint per sample (throttled so several heartbeats fit inside one
// job).
func v1Worker(c *Config) {
	v1Side(c)
	c.CheckpointEvery = 1
	c.Throttle = 10 * time.Millisecond
}

// TestWireMatrixBitIdentical runs the cross-version matrix. Whatever
// the two sides negotiate — legacy JSON on either end, full v1 with
// deltas and compression, or a mixed fleet speaking both at once — the
// merged PMF inputs must be bit-identical to the LocalRunner baseline.
func TestWireMatrixBitIdentical(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	cells := []struct {
		name    string
		coV1    bool // coordinator grants v1 + delta + compression
		workers int
		// late workers (the last ones) attach only once an earlier worker
		// holds a lease, so a fast fleet cannot drain the campaign before a
		// throttled one has been given anything.
		late   int
		mutate func(i int, c *Config)
		check  func(t *testing.T, st Stats, ws []*Worker)
	}{
		{
			// New coordinator, old fleet: every hello offers 0, every
			// connection stays on JSON lines.
			name: "v1-coordinator-v0-workers", coV1: true, workers: 3,
			mutate: func(i int, c *Config) { v0Side(c) },
			check: func(t *testing.T, st Stats, ws []*Worker) {
				if st.WireV0Conns < 3 || st.WireV1Conns != 0 {
					t.Fatalf("wire conns v0=%d v1=%d, want all v0", st.WireV0Conns, st.WireV1Conns)
				}
			},
		},
		{
			// Old coordinator, new fleet: workers offer v1, the grant
			// caps them at v0. No downgrade event — v0 is a known version.
			name: "v0-coordinator-v1-workers", coV1: false, workers: 3,
			mutate: func(i int, c *Config) { v1Worker(c) },
			check: func(t *testing.T, st Stats, ws []*Worker) {
				if st.WireV0Conns < 3 || st.WireV1Conns != 0 || st.WireDowngrades != 0 {
					t.Fatalf("wire conns v0=%d v1=%d downgrades=%d, want all v0 without downgrades",
						st.WireV0Conns, st.WireV1Conns, st.WireDowngrades)
				}
			},
		},
		{
			// Full v1: deltas must actually fold, and the raw/wire byte
			// ratio must show the transport doing work.
			name: "v1-delta-compression", coV1: true, workers: 3,
			mutate: func(i int, c *Config) { v1Worker(c) },
			check: func(t *testing.T, st Stats, ws []*Worker) {
				if st.WireV1Conns < 3 {
					t.Fatalf("WireV1Conns = %d, want >= 3", st.WireV1Conns)
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
			},
		},
		{
			// Mixed fleet: v0 and v1 workers on one coordinator at once. The
			// unthrottled v0 pair could run all four ~3 ms jobs before a v1
			// worker is leased one, so it attaches late; and the v1 pulls are
			// throttled to 13 checkpoints x 30 ms against a 20 ms beat, so
			// each streams far more than the two checkpoints one delta needs.
			name: "mixed-fleet", coV1: true, workers: 4, late: 2,
			mutate: func(i int, c *Config) {
				if i < 2 {
					v1Worker(c)
					c.Throttle = 30 * time.Millisecond
				} else {
					v0Side(c)
				}
			},
			check: func(t *testing.T, st Stats, ws []*Worker) {
				if st.WireV0Conns < 1 || st.WireV1Conns < 1 {
					t.Fatalf("wire conns v0=%d v1=%d, want both present", st.WireV0Conns, st.WireV1Conns)
				}
				if st.DeltasFolded < 1 {
					t.Fatalf("no deltas folded in the mixed fleet: %+v", st)
				}
			},
		},
	}

	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			side := v0Side
			if cell.coV1 {
				side = v1Side
			}
			co := newCoordinator(t, side)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type result struct {
				logs map[campaign.Combo][]*trace.WorkLog
				err  error
			}
			resCh := make(chan result, 1)
			go func() {
				logs, err := co.Run(spec)
				resCh <- result{logs, err}
			}()
			var ws []*Worker
			for i := 0; i < cell.workers; i++ {
				if i == cell.workers-cell.late {
					for deadline := time.Now().Add(10 * time.Second); co.Stats().Assignments == 0; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatal("no early worker was ever leased a job")
						}
					}
				}
				ws = append(ws, startWorker(t, ctx, co, "w", func(c *Config) { cell.mutate(i, c) }))
			}
			res := <-resCh
			if res.err != nil {
				t.Fatal(res.err)
			}
			requireBitIdentical(t, want, res.logs)
			// The spec is ~10 ms of work, so Run can return before the last
			// worker's hello has been served; the server keeps accepting,
			// and the connection counts the checks read settle once it has.
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if st := co.Stats(); st.WireV0Conns+st.WireV1Conns >= cell.workers {
					break
				}
			}
			cell.check(t, co.Stats(), ws)
		})
	}
}

// TestWireV1ClientFoldAndNeedFull drives the delta protocol with a
// hand-rolled v1 client, pinning the healing handshake: a delta against
// a base the coordinator does not hold is answered OK+NeedFull (never
// an error), a full image re-seeds the base, and a well-formed delta is
// folded so the coordinator's stored image equals the client's
// post-delta document byte for byte. A second client offering an
// unknown future version must be downgraded to v0 and still served.
func TestWireV1ClientFoldAndNeedFull(t *testing.T) {
	spec := testSpec()
	co := newCoordinator(t, v1Side)

	errCh := make(chan error, 1)
	go func() {
		_, err := co.Run(spec)
		errCh <- err
	}()
	addr := co.Listener.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	codec, err := wire.Open(conn, conn, wire.Session{Name: "hand-v1", Version: wire.V1, Delta: true, Comp: true})
	if err != nil {
		t.Fatal(err)
	}
	if codec.Version != wire.V1 || !codec.Delta || !codec.Comp {
		t.Fatalf("hello grant = %+v, want v1 with delta and compression", codec)
	}
	rt := func(req *request) *response {
		t.Helper()
		if err := codec.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := codec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}

	assign := rt(&request{Type: msgNext})
	if assign.Type != msgAssign {
		t.Fatalf("next got %q, want assign", assign.Type)
	}
	jobID, attempt := assign.Job.ID, assign.Job.Attempt

	// Synthetic checkpoint documents with advancing step counters, so
	// every fold passes the coordinator's farthest-wins gate.
	ck := func(steps int) []byte {
		return []byte(fmt.Sprintf(`{"steps":%d,"positions":[1.5,2.5,3.5,%d.0]}`, steps, steps))
	}
	progress := func(p *wire.Payload) *response {
		t.Helper()
		return rt(&request{Type: msgProgress, JobID: jobID, Attempt: attempt, Ckpt: p})
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

	// A peer from the future: its hello offers a version this build does
	// not know, so it is downgraded to v0 — served, logged, counted.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	future, err := wire.Open(conn2, conn2, wire.Session{Name: "futuristic", Version: 99, Delta: true, Comp: true})
	if err != nil {
		t.Fatal(err)
	}
	if future.Version != wire.V0 || future.Delta || future.Comp {
		t.Fatalf("future hello grant = %+v, want plain v0", future)
	}
	if st := co.Stats(); st.WireDowngrades != 1 {
		t.Fatalf("WireDowngrades = %d, want 1", st.WireDowngrades)
	}

	// The checkpoints were synthetic, so the job must not be re-executed
	// from them: cancel the campaign instead of letting it finish.
	key, err := SpecKey(spec, CampaignTag{})
	if err != nil {
		t.Fatal(err)
	}
	if !co.CancelCampaign(key) {
		t.Fatal("CancelCampaign found no campaign")
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

// TestDeltaFoldResumeOnWorkerLoss kills a v1 delta-checkpointing worker
// after its deltas have folded, then lets fresh v1 workers resume from
// the folded images. Bit-identical output proves fold-before-spool
// reconstructs exact resume state — the delta path never ships a
// checkpoint the scheduler could not hand to a different worker.
func TestDeltaFoldResumeOnWorkerLoss(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	co := newCoordinator(t, func(c *Config) {
		v1Side(c)
		c.RetryBase = 5 * time.Millisecond
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
	co1 := NewTestCoordinator(t, ln, json.RawMessage(`{"beads":3}`), func(c *Config) {
		v1Side(c)
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
		c.WrapConn = gate.Wrap
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
			v1Side(c)
			c.BeatInterval = 20 * time.Millisecond
			c.CheckpointEvery = 1
			c.Throttle = 20 * time.Millisecond
			c.Reconnect = true
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
		v1Side(c)
		c.LeaseTTL = 2 * time.Second
		c.RetryBase = 10 * time.Millisecond
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
