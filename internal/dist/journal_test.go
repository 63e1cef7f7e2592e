package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/md"
	"spice/internal/netsim"
	"spice/internal/obs"
	"spice/internal/smd"
	"spice/internal/trace"
	"spice/internal/wire"
)

// spooledCheckpoints lists the job IDs with a checkpoint file on disk.
func spooledCheckpoints(t *testing.T, stateDir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(stateDir, "spool", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(matches))
	for _, m := range matches {
		ids = append(ids, strings.TrimSuffix(filepath.Base(m), ".ckpt"))
	}
	return ids
}

// TestJournalRecoveryResumesCampaign is the tentpole in-process drill:
// a journaling coordinator is killed ungracefully mid-campaign (listener
// closed, every connection severed, no shutdown path runs) while its
// workers stay alive, and a fresh coordinator over the same state
// directory finishes the campaign bit-identically — adopting the
// workers still mid-pull rather than restarting their jobs.
func TestJournalRecoveryResumesCampaign(t *testing.T) {
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
		// This Run dies with the simulated crash; only the journal it
		// leaves behind matters.
		_, _ = co1.Run(spec)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := NewTestWorker(t, fmt.Sprintf("survivor-%d", i), "", addr, testBuild, func(c *Config) {
			c.BeatInterval = 20 * time.Millisecond
			c.CheckpointEvery = 1
			c.Throttle = 20 * time.Millisecond
			c.ReconnectWindow = 30 * time.Second
		})
		go w.Run(ctx)
	}

	// Wait until both workers are mid-job with checkpoints spooled.
	deadline := time.Now().Add(20 * time.Second)
	for len(spooledCheckpoints(t, stateDir)) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoints never reached the spool")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash: stop accepting and cut every live connection at once. No
	// drain, no close — exactly what SIGKILL leaves behind.
	ln.Close()
	gate.Blackhole(0)
	spooled := spooledCheckpoints(t, stateDir)
	if len(spooled) == 0 {
		t.Fatal("no spooled checkpoints at crash time")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	events := obs.NewEventLog(nil, 1<<12)
	co2 := NewTestCoordinator(t, ln2, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
		c.Events = events
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
	if st.ReplayedRecords == 0 {
		t.Fatal("restart replayed no journal records")
	}
	if st.Adoptions < 1 {
		t.Fatalf("no surviving worker was adopted, stats = %+v", st)
	}
	RequireResumed(t, events, spooled)
}

// completedJournal runs a one-job campaign to completion under a state
// dir and returns the resulting journal bytes.
func completedJournal(t *testing.T, spec campaign.Spec) (string, []byte) {
	t.Helper()
	stateDir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := NewTestCoordinator(t, ln, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 1, nil)
	if _, err := co.Run(spec); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(stateDir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return stateDir, data
}

// TestJournalTornTailSurfacedInStats drives torn-tail recovery (swept at
// every byte offset in internal/wal) through the coordinator: the
// campaign whose final done record was torn off
// re-runs that job, the output stays bit-identical, and Stats carries
// the typed tail error.
func TestJournalTornTailSurfacedInStats(t *testing.T) {
	spec := campaign.Spec{
		Kappas:     []float64{100},
		Velocities: []float64{800},
		Replicas:   1,
		Distance:   3,
		Seed:       21,
	}
	want := localBaseline(t, spec)
	stateDir, data := completedJournal(t, spec)

	// Tear three bytes into the final record — mid-header, the classic
	// crash cut.
	const torn = 3
	scan, err := trace.ScanRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(data) - 8 - len(scan.Records[len(scan.Records)-1])
	path := filepath.Join(stateDir, "journal.log")
	if err := os.WriteFile(path, data[:lastStart+torn], 0o644); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := NewTestCoordinator(t, ln, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
	})
	t.Cleanup(func() { _ = co.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 1, nil)

	got, err := co.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)

	st := co.Stats()
	if st.TornTail != TailTorn {
		t.Fatalf("stats.TornTail = %v, want TailTorn", st.TornTail)
	}
	if st.TruncatedTailBytes != torn {
		t.Fatalf("stats.TruncatedTailBytes = %d, want %d", st.TruncatedTailBytes, torn)
	}
	if st.Restarts != 1 {
		t.Fatalf("stats.Restarts = %d, want 1", st.Restarts)
	}
}

// testClient is a hand-rolled client for poking at the protocol: the
// real handshake, then one request and one reply at a time.
type testClient struct {
	t    *testing.T
	conn net.Conn
	*wire.Session
}

func dialTestClient(t *testing.T, addr, name string) *testClient {
	t.Helper()
	return dialSiteClient(t, addr, name, "")
}

// dialSiteClient is dialTestClient with an explicit site identity.
func dialSiteClient(t *testing.T, addr, name, site string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sess, err := wire.Open(conn, conn, name, site)
	if err != nil {
		t.Fatal(err)
	}
	return &testClient{t: t, conn: conn, Session: sess}
}

func (c *testClient) rt(req *request) *response {
	c.t.Helper()
	if err := c.Encode(req); err != nil {
		c.t.Fatal(err)
	}
	var resp response
	if err := c.Decode(&resp); err != nil {
		c.t.Fatal(err)
	}
	return &resp
}

// next polls until the coordinator hands this client a job.
func (c *testClient) next() *response {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := c.rt(&request{Type: msgNext})
		if resp.Type == msgAssign {
			return resp
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("never assigned a job (last reply %q)", resp.Type)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetransmittedResultsDropped pins the idempotency rules with
// hand-rolled clients: a duplicate of an already-recorded result is
// acked and dropped, and result/fail lines from a lease that was
// revoked and reassigned are acked and dropped — never double-merged
// into the campaign output, never double-counted in the job stats.
func TestRetransmittedResultsDropped(t *testing.T) {
	spec := campaign.Spec{
		Kappas:     []float64{100, 1000},
		Velocities: []float64{800},
		Replicas:   1,
		Distance:   3,
		Seed:       21,
	}
	want := localBaseline(t, spec)

	events := obs.NewEventLog(nil, 1<<12)
	co := newCoordinator(t, func(c *Config) {
		c.LeaseTTL, c.BeatInterval = 150*time.Millisecond, 20*time.Millisecond
		c.Events = events
	})
	leasesOf := func(id string) (n int) {
		for _, ev := range LeaseEvents(t, events) {
			if ev.Job == id {
				n++
			}
		}
		return n
	}
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

	// Phase 1: an honest but chatty client completes its job and then
	// retransmits the identical result — as the outbox does after a
	// lost ack.
	honest := dialTestClient(t, addr, "honest")
	assign := honest.next()
	j1, attempt1 := assign.Job.ID, assign.Job.Attempt
	task := campaign.Task{Combo: assign.Job.Combo, Seed: assign.Job.Seed, Index: assign.Job.Index}
	log1, err := campaign.ExecutePull(*assign.Spec, task, func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
		return localBuild(c, seed)
	}, smd.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if resp := honest.rt(&request{Type: msgResult, JobID: j1, Attempt: attempt1, Log: log1}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("first result rejected: %+v", resp)
	}
	if resp := honest.rt(&request{Type: msgResult, JobID: j1, Attempt: attempt1, Log: log1}); resp.Type != msgOK {
		t.Fatalf("duplicate result not acked: %+v", resp)
	}
	if st := co.Stats(); st.DuplicateResultsDropped != 1 {
		t.Fatalf("stats.DuplicateResultsDropped = %d, want 1", st.DuplicateResultsDropped)
	}

	// Phase 2: a silent client takes the second job and never beats; the
	// janitor revokes its lease and a real (slow) worker takes over.
	silent := dialTestClient(t, addr, "silent")
	assign2 := silent.next()
	j2, attempt2 := assign2.Job.ID, assign2.Job.Attempt
	if j2 == j1 {
		t.Fatalf("silent client got the completed job %s", j1)
	}
	deadline := time.Now().Add(10 * time.Second)
	for co.Stats().LeaseExpiries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 1, func(i int, c *Config) {
		c.CheckpointEvery = 1
		c.Throttle = 20 * time.Millisecond
	})
	for leasesOf(j2) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("revoked job never reassigned")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The zombie now reports on its revoked lease: a fail, then a stale
	// result carrying the WRONG job's log. Both must be acked, dropped,
	// and must not requeue the job or poison the merge.
	if resp := silent.rt(&request{Type: msgFail, JobID: j2, Attempt: attempt2, Err: "zombie says no"}); resp.Type != msgOK {
		t.Fatalf("stale fail not acked: %+v", resp)
	}
	if resp := silent.rt(&request{Type: msgResult, JobID: j2, Attempt: attempt2, Log: log1}); resp.Type != msgOK {
		t.Fatalf("stale result not acked: %+v", resp)
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
	if st.DuplicateResultsDropped != 3 {
		t.Fatalf("stats.DuplicateResultsDropped = %d, want 3", st.DuplicateResultsDropped)
	}
	if st.Failures != 0 {
		t.Fatalf("stale fail was counted as a failure: %+v", st)
	}
	if n := leasesOf(j2); n != 2 {
		t.Fatalf("job %s leased %d times, want 2 (stale lines must not reassign)", j2, n)
	}
}

// TestReplayedResultNeedsEveryJob pins ReplayedResult as an
// all-or-nothing read of the journal replay: a campaign whose journal
// holds only one of its two done records yields an error and no logs,
// the same journal with both collates them in task order, and a
// coordinator without a state dir has nothing to read.
func TestReplayedResultNeedsEveryJob(t *testing.T) {
	spec := campaign.Spec{Kappas: []float64{100}, Velocities: []float64{800}, Replicas: 2, Distance: 3, Seed: 21}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := campaignKeyTagged(CampaignTag{}, specJSON)
	tasks := spec.Tasks()
	dir := t.TempDir()
	appendRecs := func(recs ...*jrec) {
		t.Helper()
		jn, _, _, err := openJournal(journalConfig(nil, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := jn.log.Append(r, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := jn.close(); err != nil {
			t.Fatal(err)
		}
	}
	logOf := func(i int) *trace.WorkLog {
		return &trace.WorkLog{Kappa: 100, Velocity: 800, Seed: tasks[i].Seed}
	}
	done := func(i int) *jrec {
		return &jrec{T: jDone, Camp: key, Job: jobID(key, tasks[i]), Attempt: 1, Log: logOf(i)}
	}
	read := func() (map[campaign.Combo][]*trace.WorkLog, error) {
		co := newCoordinator(t, func(c *Config) { c.StateDir = dir })
		defer co.Close()
		return co.ReplayedResult(key)
	}

	appendRecs(&jrec{T: jCampaign, Camp: key, Spec: specJSON, Tag: &CampaignTag{}}, done(0))
	if logs, err := read(); err == nil || logs != nil {
		t.Fatalf("one of two done records: ReplayedResult = %v, %v; want an error and no logs", logs, err)
	}

	appendRecs(done(1))
	logs, err := read()
	if err != nil {
		t.Fatal(err)
	}
	got := logs[tasks[0].Combo]
	if len(logs) != 1 || len(got) != 2 || got[0].Seed != tasks[0].Seed || got[1].Seed != tasks[1].Seed {
		t.Fatalf("ReplayedResult = %+v, want both replicas in task order", logs)
	}

	if logs, err := newCoordinator(t, nil).ReplayedResult(key); err == nil || logs != nil {
		t.Fatalf("no state dir: ReplayedResult = %v, %v; want an error and no logs", logs, err)
	}
}
