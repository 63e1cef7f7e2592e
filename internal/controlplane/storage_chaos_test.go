package controlplane

// Disk-fault chaos tests for the queue journal: the ack-ordering
// regressions (a failed append must leave neither memory nor disk
// changed, and must never be acknowledged), the ENOSPC degradation /
// 503 / recovery drill over the real HTTP surface, the bounded-log
// guarantee under a monotonic workload, the shared compaction
// kill-point sweep run over the production fold, the on-disk format
// freeze, and decoder fuzzing. The protocol itself — append repair, torn
// tails, snapshot + log replay — is swept in internal/wal.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/faultfs"
	"spice/internal/wal"
	"spice/internal/wal/waltest"
)

// TestQueueSubmitAckOrdering is the satellite regression for the
// journal-first discipline: when the append fails mid-record, the
// submission is refused with ErrStorageDegraded, the in-memory queue is
// untouched, and the log on disk replays without any trace of it.
func TestQueueSubmitAckOrdering(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	dir := t.TempDir()
	s, _ := newHarness(t, Config{
		StateDir:     dir,
		FS:           inj,
		StorageProbe: 20 * time.Millisecond,
	}, 0)

	id1, err := s.Submit(specA(), dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}

	// The very next mutating operation — the append's write — fails.
	inj.FailAt(1, faultfs.EIO)
	_, err = s.Submit(specB(), dist.CampaignTag{Tenant: "bob"})
	if !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("failed-append submit returned %v, want ErrStorageDegraded", err)
	}
	if got := len(s.List("")); got != 1 {
		t.Fatalf("rejected submission reached the in-memory queue: %d campaigns", got)
	}
	if !s.StorageHealth().Degraded {
		t.Fatal("server not degraded after append failure")
	}
	qs, err := scanQueueState(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.order) != 1 || qs.order[0].rec.ID != id1 {
		t.Fatalf("disk state after failed append: %d campaigns, want only %s", len(qs.order), id1)
	}

	// The prober recovers the moment faults clear, and the same
	// submission then succeeds and is durably journaled.
	deadline := time.Now().Add(10 * time.Second)
	for s.StorageHealth().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("server never recovered after faults cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	id2, err := s.Submit(specB(), dist.CampaignTag{Tenant: "bob"})
	if err != nil {
		t.Fatalf("resubmission after recovery: %v", err)
	}
	qs, err = scanQueueState(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.order) != 2 || qs.order[1].rec.ID != id2 {
		t.Fatalf("recovered journal holds %d campaigns, want [%s %s]", len(qs.order), id1, id2)
	}
	h := s.StorageHealth()
	if h.Degradations != 1 || h.Recoveries != 1 || h.StorageErrors < 1 {
		t.Fatalf("health counters after one fault cycle: %+v", h)
	}
}

// TestRefusedSubmitLeavesNoTrace is the case the test above misses: the
// record is written and framed, and only its fsync fails. The tenant is
// told 503, so the log must be clean again BEFORE Submit returns — not
// whenever the next append gets around to repairing it — or a restart in
// between replays a campaign that was refused. The prober is parked so
// nothing else touches the log before the scan.
func TestRefusedSubmitLeavesNoTrace(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	dir := t.TempDir()
	s, _ := newHarness(t, Config{StateDir: dir, FS: inj, StorageProbe: time.Hour}, 0)
	id1, err := s.Submit(specA(), dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	inj.FailAt(2, faultfs.EIO) // the append's write succeeds, its fsync fails
	if _, err := s.Submit(specB(), dist.CampaignTag{Tenant: "bob"}); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("fsync-failed submit returned %v, want ErrStorageDegraded", err)
	}
	qs, err := scanQueueState(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.order) != 1 || qs.order[0].rec.ID != id1 {
		t.Fatalf("disk holds %d campaigns after a refused submit, want only %s", len(qs.order), id1)
	}
}

// TestStorageDegradedHTTP503AndRecovery drives the acceptance drill
// over the real HTTP API: persistent ENOSPC makes submissions return
// 503 with Retry-After (never a dropped-but-acked campaign), /readyz
// semantics (Ready) fail, campaigns already running keep draining to
// completion, and service recovers once the faults clear.
func TestStorageDegradedHTTP503AndRecovery(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s, _ := newHarness(t, Config{
		StateDir:     t.TempDir(),
		FS:           inj,
		StorageProbe: 20 * time.Millisecond,
	}, 1)
	s.Start()
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	post := func(spec campaign.Spec, tenant, name string) *http.Response {
		t.Helper()
		body, err := json.Marshal(SubmitRequest{Tenant: tenant, Name: name, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post(specA(), "alice", "healthy")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy submit returned %d, want 202", resp.StatusCode)
	}
	var acc SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}

	inj.SetStuck(faultfs.ENOSPC)
	resp = post(specB(), "bob", "enospc")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit under ENOSPC returned %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Fatal("503 response missing error body")
	}
	if err := s.Ready(); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("Ready() under ENOSPC = %v, want ErrStorageDegraded", err)
	}
	if got := len(s.List("")); got != 1 {
		t.Fatalf("rejected submission visible in queue: %d campaigns", got)
	}

	// Graceful degradation, not a stall: the campaign accepted before
	// the disk died still runs to completion on its worker leases.
	waitState(t, s, acc.ID, StateDone)

	inj.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for s.Ready() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready after faults cleared: %v", s.Ready())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp = post(specB(), "bob", "after-recovery")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after recovery returned %d, want 202", resp.StatusCode)
	}
	var acc2 SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&acc2); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, acc2.ID, StateDone)
}

// TestQueueCompactionBoundsLog pins the tentpole's size guarantee on a
// workload that grew the log monotonically before compaction existed:
// many short-lived campaigns. The log must stay near the threshold
// while every campaign's terminal state survives replay.
func TestQueueCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	const threshold = 4096
	cfg := queueConfig(nil, dir)
	cfg.CompactBytes = threshold
	j, _, _, err := wal.Open[qrec](cfg, newQueueScan)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(specA())
	now := time.Unix(1700000000, 0).UTC()
	const n = 200
	var maxLen int64
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c-%03d", i)
		for _, r := range []*qrec{
			{T: qSubmit, ID: id, Tenant: "t", Spec: spec, At: now},
			{T: qStart, ID: id, At: now},
			{T: qDone, ID: id, At: now},
		} {
			if err := j.Append(r, true); err != nil {
				t.Fatal(err)
			}
			if b := j.Health().Bytes; b > maxLen {
				maxLen = b
			}
		}
	}
	if c := j.Health().Compactions; c < 2 {
		t.Fatalf("compactions = %d, want several over %d campaigns", c, n)
	}
	// One record may overshoot the threshold before the next check; the
	// whole history (n × 3 records) must not.
	if maxLen > threshold+1024 {
		t.Fatalf("queue.log peaked at %d bytes, not bounded near %d", maxLen, threshold)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, qs, tail := openQueue(t, nil, dir)
	defer j.Close()
	if tail.TornBytes != 0 {
		t.Fatalf("reopen: torn=%d", tail.TornBytes)
	}
	if len(qs.order) != n {
		t.Fatalf("replayed %d campaigns, want %d", len(qs.order), n)
	}
	for i, qr := range qs.order {
		if qr.rec.ID != fmt.Sprintf("c-%03d", i) || qr.state != StateDone {
			t.Fatalf("campaign %d replayed as %s/%s", i, qr.rec.ID, qr.state)
		}
	}
}

// queueFingerprint serializes the folded queue state deterministically,
// ignoring sequence numbers (compaction renumbers them).
func queueFingerprint(qs *queueScan) string {
	type row struct {
		ID       string          `json:"id"`
		Tenant   string          `json:"tenant"`
		Priority int             `json:"priority"`
		Name     string          `json:"name"`
		Spec     json.RawMessage `json:"spec"`
		At       time.Time       `json:"at"`
		State    State           `json:"state"`
		Err      string          `json:"err"`
	}
	rows := make([]row, 0, len(qs.order))
	for _, qr := range qs.order {
		rows = append(rows, row{
			ID: qr.rec.ID, Tenant: qr.rec.Tenant, Priority: qr.rec.Priority,
			Name: qr.rec.Name, Spec: qr.rec.Spec, At: qr.rec.At,
			State: qr.state, Err: qr.err,
		})
	}
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// seedQueue fills a queue journal with one campaign in every lifecycle
// state and a mid-stream compaction, so the sweep replaces an existing
// snapshot rather than creating the first one. The golden files under
// testdata/ were written by this exact sequence at the commit before
// internal/wal existed; do not change it.
func seedQueue(t *testing.T, j *wal.Log[qrec, *qrec]) {
	t.Helper()
	spec := json.RawMessage(`{"kappas":[100],"velocities":[800],"replicas":2,"distance":3,"seed":21}`)
	now := time.Unix(1700000000, 0).UTC()
	for i, recs := range [][]*qrec{
		{{T: qSubmit, ID: "a", Tenant: "alice", Priority: 2, Name: "first", Spec: spec, At: now},
			{T: qStart, ID: "a", Tenant: "alice", At: now.Add(time.Second)},
			{T: qDone, ID: "a", Tenant: "alice", At: now.Add(2 * time.Second)}},
		{{T: qSubmit, ID: "b", Tenant: "bob", Spec: spec, At: now}, {T: qStart, ID: "b"}, {T: qFail, ID: "b", Err: "boom"}},
		{{T: qSubmit, ID: "c", Tenant: "bob", Spec: spec, At: now}, {T: qCancel, ID: "c"}},
		{{T: qSubmit, ID: "d", Tenant: "eve", Spec: spec, At: now}, {T: qStart, ID: "d"}},
	} {
		for _, r := range recs {
			if err := j.Append(r, true); err != nil {
				t.Fatal(err)
			}
		}
		if i == 1 {
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestQueueCompactionKillPointSweep passes the queue's real fold to the
// shared harness: a fault at every mutating operation inside Compact
// must leave the folded queue state identical and the journal
// appendable.
func TestQueueCompactionKillPointSweep(t *testing.T) {
	waltest.CompactionSweep(t, queueConfig(nil, ""), newQueueScan,
		func(j *wal.Log[qrec, *qrec]) { seedQueue(t, j) },
		func() *qrec { return &qrec{T: qNoop} }, queueFingerprint)
}

// TestQueueFormatFrozen pins the on-disk contract against bytes recorded
// from the commit before internal/wal: the files that commit wrote
// replay to the fold it computed, and the same append + compact sequence
// still writes the same bytes.
func TestQueueFormatFrozen(t *testing.T) {
	waltest.FormatFrozen(t, queueConfig(nil, ""), filepath.Join("testdata", "golden"), newQueueScan,
		func(j *wal.Log[qrec, *qrec]) { seedQueue(t, j) },
		func() *qrec { return &qrec{T: qNoop} }, queueFingerprint)
}

// FuzzApply feeds arbitrary bytes through the qrec decoder into the
// fold: no input may panic it, and whatever state results must survive
// its own snapshot — re-applying the emitted records reproduces it.
func FuzzApply(f *testing.F) {
	f.Add([]byte(`{"t":"submit","id":"a","tenant":"alice","priority":2,"spec":{"kappas":[1]},"at":"2023-11-14T22:13:20Z"}`))
	f.Add([]byte(`{"t":"fail","id":"q","err":"boom"}`))
	f.Add([]byte(`{"t":"cancel","id":"q"}`))
	f.Add([]byte(`{"t":"start","id":"nobody"}`))
	f.Add([]byte(`{"t":"submit","spec":null,"at":"0000-00-00"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		qs := newQueueScan()
		qs.Apply(&qrec{T: qSubmit, ID: "q", Tenant: "t"})
		var r qrec
		if json.Unmarshal(data, &r) != nil {
			return
		}
		qs.Apply(&r)
		again := newQueueScan()
		qs.Snapshot(again.Apply)
		if got, want := queueFingerprint(again), queueFingerprint(qs); got != want {
			t.Fatalf("snapshot does not replay to the state it was taken from:\n got %s\nwant %s", got, want)
		}
	})
}
