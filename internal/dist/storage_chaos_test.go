package dist

// Disk-fault chaos tests for the journal: the shared compaction
// kill-point sweep run over the production fold, the on-disk format
// freeze against files written by the pre-wal journal, the stale
// spool temp file sweep, decoder fuzzing, the bounded-log guarantee
// under a live campaign, and the degraded-storage end-to-end drill
// (persistent ENOSPC mid-campaign, msgRetry to the workers, recovery
// when the faults clear, bit-identical results throughout). The
// protocol itself — append repair, torn tails, snapshot + log replay —
// is swept in internal/wal.

import (
	"context"
	"encoding/json"
	"net"
	"path/filepath"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/faultfs"
	"spice/internal/trace"
	"spice/internal/wal"
	"spice/internal/wal/waltest"
)

// chaosWorkLog fabricates a small deterministic work log.
func chaosWorkLog(seed uint64) *trace.WorkLog {
	wl := &trace.WorkLog{Kappa: 100, Velocity: 800, Seed: seed}
	for i := 0; i < 4; i++ {
		wl.Samples = append(wl.Samples, trace.WorkSample{
			Lambda: float64(i), Z: float64(i) + 0.5, Work: float64(seed) + float64(i)*0.25,
		})
	}
	return wl
}

// seedChaosJournal fills a journal with realistic shape: a first batch
// of records, one compaction (so the sweep exercises the
// rename-over-existing-snapshot path), then a second batch left in the
// log. Both campaigns carry leases, done logs and fails. The golden
// files under testdata/ were written by this exact sequence at the
// commit before internal/wal existed; do not change it.
func seedChaosJournal(t *testing.T, lg *wal.Log[jrec, *jrec]) {
	t.Helper()
	specA := json.RawMessage(`{"kappas":[100],"velocities":[800],"replicas":2}`)
	specB := json.RawMessage(`{"kappas":[300],"velocities":[1600],"replicas":1}`)
	batch1 := []*jrec{
		{T: jCampaign, Camp: "campA", Spec: specA, Tag: &CampaignTag{Tenant: "alice", Priority: 2, Name: "a"}},
		{T: jLease, Camp: "campA", Job: "j1", Worker: "w0", Site: "s0", Attempt: 1},
		{T: jCkpt, Camp: "campA", Job: "j1", Attempt: 1},
		{T: jDone, Camp: "campA", Job: "j1", Log: chaosWorkLog(7)},
		{T: jLease, Camp: "campA", Job: "j2", Worker: "w1", Site: "s1", Attempt: 1},
		{T: jFail, Camp: "campA", Job: "j2", Err: "boom"},
	}
	batch2 := []*jrec{
		{T: jLease, Camp: "campA", Job: "j2", Worker: "w0", Attempt: 2},
		{T: jCampaign, Camp: "campB", Spec: specB},
		{T: jLease, Camp: "campB", Job: "j1", Worker: "w1", Attempt: 1},
		{T: jFail, Camp: "campB", Job: "j1", Err: "flaky"},
		{T: jFail, Camp: "campB", Job: "j1", Err: "flaky again"},
		{T: jDone, Camp: "campB", Job: "j1", Log: chaosWorkLog(9)},
	}
	for i, r := range batch1 {
		if err := lg.Append(r, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, r := range batch2 {
		if err := lg.Append(r, false); err != nil {
			t.Fatal(err)
		}
	}
}

// foldFingerprint serializes the folded campaign state deterministically
// (JSON maps marshal with sorted keys), so two state dirs with identical
// logical state compare equal. The submission time, cancel and failure
// appear only when set, so the golden fold.json predating them holds.
func foldFingerprint(rep *journalReplay) string {
	out := make(map[string]any, len(rep.campaigns))
	for key, c := range rep.campaigns {
		fp := map[string]any{
			"spec":     string(c.specJSON),
			"tag":      c.tag,
			"done":     c.done,
			"attempts": c.attempts,
			"workers":  c.workers,
			"fails":    c.fails,
		}
		if !c.at.IsZero() {
			fp["at"] = c.at
		}
		if c.canceled {
			fp["canceled"] = true
		}
		if c.err != "" {
			fp["err"] = c.err
		}
		out[key] = fp
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestCompactionKillPointSweep passes the journal's real fold and a
// realistic history to the shared harness: a fault at every mutating
// filesystem operation inside Compact must leave the folded campaign
// state — the merged PMF's inputs — byte-identical, and the journal
// reopenable and appendable.
func TestCompactionKillPointSweep(t *testing.T) {
	waltest.CompactionSweep(t, journalConfig(nil, ""), newJournalReplay,
		func(lg *wal.Log[jrec, *jrec]) { seedChaosJournal(t, lg) },
		func() *jrec { return &jrec{T: jNoop} }, foldFingerprint)
}

// TestJournalFormatFrozen pins the on-disk contract against bytes
// recorded from the commit before internal/wal: the files that commit
// wrote replay to the fold it computed, and the same append + compact
// sequence still writes the same bytes.
func TestJournalFormatFrozen(t *testing.T) {
	waltest.FormatFrozen(t, journalConfig(nil, ""), filepath.Join("testdata", "golden"), newJournalReplay,
		func(lg *wal.Log[jrec, *jrec]) { seedChaosJournal(t, lg) },
		func() *jrec { return &jrec{T: jNoop} }, foldFingerprint)
}

// TestStaleSpoolTmpSwept crashes a spool write at its rename — the temp
// file is stranded, because removeSpool only ever unlinks <job>.ckpt —
// and requires the next open to remove it while the last complete
// checkpoint stays readable.
func TestStaleSpoolTmpSwept(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	jn, _, _, err := openJournal(journalConfig(inj, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.spoolCheckpoint("job", []byte("gen1")); err != nil {
		t.Fatal(err)
	}
	inj.FailOpAt(faultfs.OpRename, 1, faultfs.EIO)
	inj.FailOpAt(faultfs.OpRemove, 1, faultfs.EIO) // the crash: no cleanup either
	if err := jn.spoolCheckpoint("job", []byte("gen2")); err == nil {
		t.Fatal("spool write survived a failed rename")
	}
	jn.close()
	if tmp := waltest.TmpFiles(t, jn.spoolDir()); len(tmp) != 1 {
		t.Fatalf("kill point left %v in the spool, want the stranded temp file", tmp)
	}
	jn, _, _, err = openJournal(journalConfig(nil, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if tmp := waltest.TmpFiles(t, jn.spoolDir()); len(tmp) != 0 {
		t.Fatalf("%v survived the reopen", tmp)
	}
	if got := jn.loadSpool("job"); string(got) != "gen1" {
		t.Fatalf("spooled checkpoint after the crash = %q, want the last complete one", got)
	}
}

// FuzzApply feeds arbitrary bytes through the jrec decoder into the
// fold: no input may panic it, and whatever state results must survive
// its own snapshot — re-applying the emitted records reproduces it.
func FuzzApply(f *testing.F) {
	f.Add([]byte(`{"t":"campaign","camp":"c","spec":{"kappas":[1]},"tag":{"tenant":"a"}}`))
	f.Add([]byte(`{"t":"lease","camp":"c","job":"j","worker":"w","attempt":2,"hedge":true}`))
	f.Add([]byte(`{"t":"done","camp":"c","job":"j","log":{"Kappa":1,"Samples":[{"Work":1}]}}`))
	f.Add([]byte(`{"t":"fail","job":"j","n":-3}`))
	f.Add([]byte(`{"t":"campaign","camp":"c","at":"2023-11-14T22:13:20Z"}`))
	f.Add([]byte(`{"t":"cancel","camp":"elsewhere"}`))
	f.Add([]byte(`{"t":"fail","camp":"c","err":"exhausted"}`))
	f.Add([]byte(`{"t":"campaign","spec":null}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep := newJournalReplay()
		rep.Apply(&jrec{T: jCampaign, Camp: "c", Spec: json.RawMessage(`{}`)})
		var r jrec
		if json.Unmarshal(data, &r) != nil {
			return
		}
		rep.Apply(&r)
		rep.Apply(&r) // leases and fails accumulate; twice exercises the merge paths
		again := newJournalReplay()
		rep.Snapshot(again.Apply)
		if got, want := foldFingerprint(again), foldFingerprint(rep); got != want {
			t.Fatalf("snapshot does not replay to the state it was taken from:\n got %s\nwant %s", got, want)
		}
	})
}

// TestCoordinatorCompactionBoundedLiveCampaign runs a real campaign
// with an aggressively small compaction threshold: the journal — which
// grew monotonically before compaction existed — must stay bounded,
// the results must stay bit-identical to a local run, and a restarted
// coordinator must replay the compacted state (snapshot + log) to
// instant completion.
func TestCoordinatorCompactionBoundedLiveCampaign(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)
	stateDir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 2048
	co := NewTestCoordinator(t, ln, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
		c.CompactBytes = threshold
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, func(i int, c *Config) { c.CheckpointEvery = 1 })

	got, err := co.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)

	st := co.Stats()
	if st.Compactions < 1 {
		t.Fatalf("stats.Compactions = %d, want >= 1", st.Compactions)
	}
	// Bounded: the log can exceed the threshold by at most the records
	// appended since the last compaction check — one oversized done
	// record plus change, never the whole campaign history.
	if st.JournalBytes > threshold+16384 {
		t.Fatalf("journal.log = %d bytes, not bounded near the %d threshold", st.JournalBytes, threshold)
	}
	cancel()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the compacted state: every job replays done, the
	// campaign completes with no workers at all, bit-identically.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co2 := NewTestCoordinator(t, ln2, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
	})
	t.Cleanup(func() { _ = co2.Close() })
	got2, err := co2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got2)
	if st2 := co2.Stats(); st2.Restarts != 1 || st2.ReplayedRecords == 0 {
		t.Fatalf("restart did not replay compacted state: %+v", st2)
	}
}

// TestStorageDegradedRecovery is the end-to-end degradation drill: the
// coordinator's disk dies mid-campaign (persistent ENOSPC on every
// journal and spool operation), the coordinator degrades instead of
// crashing, workers with finished results are told msgRetry (never
// acked-and-dropped), and when the disk comes back the janitor's probe
// restores service and the campaign completes bit-identically.
func TestStorageDegradedRecovery(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	inj := faultfs.NewInjector(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := NewTestCoordinator(t, ln, json.RawMessage(`{"beads":3}`), func(c *Config) {
		c.LeaseTTL = time.Second
		c.StateDir = t.TempDir()
		c.FS = inj
		c.StorageRetries = 0 // degrade on the first failure; no in-line retries
	})
	t.Cleanup(func() { _ = co.Close() })

	type runResult struct {
		logs map[campaign.Combo][]*trace.WorkLog
		err  error
	}
	resultCh := make(chan runResult, 1)
	go func() {
		logs, err := co.Run(spec)
		resultCh <- runResult{logs: logs, err: err}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 1, func(i int, c *Config) {
		c.CheckpointEvery = 1
		c.Throttle = 10 * time.Millisecond
	})

	// Let the campaign make real progress, then kill the disk.
	deadline := time.Now().Add(30 * time.Second)
	for co.Stats().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	inj.SetStuck(faultfs.ENOSPC)
	for !co.Stats().StorageDegraded {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never entered the degraded storage state")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hold the fault long enough that at least one finished result hits
	// the msgRetry path, then clear it and wait for the probe.
	time.Sleep(300 * time.Millisecond)
	inj.Clear()
	for co.Stats().StorageDegraded {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never recovered after faults cleared")
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case r := <-resultCh:
		if r.err != nil {
			t.Fatalf("campaign failed across the degraded spell: %v", r.err)
		}
		requireBitIdentical(t, want, r.logs)
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish after storage recovery")
	}

	st := co.Stats()
	if st.StorageDegradations < 1 || st.StorageRecoveries < 1 {
		t.Fatalf("degradation cycle not recorded: %+v", st)
	}
	if st.StorageErrors < 1 {
		t.Fatalf("stats.StorageErrors = %d, want >= 1", st.StorageErrors)
	}
}
