package controlplane

// Disk-fault chaos tests for the one durable log of a served campaign,
// the coordinator's journal: the ack-ordering regressions (a refused
// install must leave neither memory nor disk changed, and must never be
// acknowledged), the ENOSPC degradation / 503 / recovery drill over the
// real HTTP surface, the frozen format of the queue.log an older server
// wrote, now read through the import, and the import fold's fuzzing.
// The protocol itself — append repair, torn tails, snapshot + log
// replay — is swept in internal/wal, and the journal's own fold in
// internal/dist.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/faultfs"
)

// onDisk wires inj under the coordinator's journal with no in-line
// retries, so an injected fault reaches the control plane at once.
func onDisk(inj *faultfs.Injector) func(*dist.Config) {
	return func(c *dist.Config) { c.FS, c.StorageRetries = inj, 0 }
}

// TestQueueSubmitAckOrdering is the regression for the journal-first
// discipline: when the campaign record's append fails mid-record, the
// submission is refused with ErrStorageDegraded, the in-memory queue is
// untouched, and journal.log replays without any trace of it.
func TestQueueSubmitAckOrdering(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	dir := t.TempDir()
	s, co := newHarness(t, Config{StateDir: dir}, 0, onDisk(inj))

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
	if !co.Stats().StorageDegraded {
		t.Fatal("server not degraded after append failure")
	}
	if recs := scanJournalRecords(t, dir); len(recs.order) != 1 || recs.order[0] != id1 {
		t.Fatalf("disk state after failed append: campaigns %v, want only %s", recs.order, id1)
	}

	// The coordinator's probe recovers once faults clear, and the same
	// submission then succeeds and is durably journaled.
	deadline := time.Now().Add(10 * time.Second)
	for co.Stats().StorageDegraded {
		if time.Now().After(deadline) {
			t.Fatal("server never recovered after faults cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	id2, err := s.Submit(specB(), dist.CampaignTag{Tenant: "bob"})
	if err != nil {
		t.Fatalf("resubmission after recovery: %v", err)
	}
	if recs := scanJournalRecords(t, dir); len(recs.order) != 2 || recs.order[1] != id2 {
		t.Fatalf("recovered journal holds campaigns %v, want [%s %s]", recs.order, id1, id2)
	}
	st := co.Stats()
	if st.StorageDegradations != 1 || st.StorageRecoveries != 1 || st.StorageErrors < 1 {
		t.Fatalf("health counters after one fault cycle: %+v", st)
	}
}

// TestRefusedSubmitLeavesNoTrace is the case the test above misses: the
// record is written and framed, and only its fsync fails. The tenant is
// told 503, so the log must be clean again BEFORE Submit returns — not
// whenever the next append gets around to repairing it — or a restart in
// between replays a campaign that was refused. The coordinator's probe
// is parked (a long lease TTL) so nothing else touches the log before
// the scan.
func TestRefusedSubmitLeavesNoTrace(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	dir := t.TempDir()
	s, _ := newHarness(t, Config{StateDir: dir}, 0, onDisk(inj), func(c *dist.Config) { c.LeaseTTL = time.Hour })
	id1, err := s.Submit(specA(), dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	inj.FailAt(2, faultfs.EIO) // the append's write succeeds, its fsync fails
	if _, err := s.Submit(specB(), dist.CampaignTag{Tenant: "bob"}); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("fsync-failed submit returned %v, want ErrStorageDegraded", err)
	}
	if recs := scanJournalRecords(t, dir); len(recs.order) != 1 || recs.order[0] != id1 {
		t.Fatalf("disk holds campaigns %v after a refused submit, want only %s", recs.order, id1)
	}
	if got := len(s.List("")); got != 1 {
		t.Fatalf("refused submission reached the in-memory queue: %d campaigns", got)
	}
}

// TestStorageDegradedHTTP503AndRecovery drives the acceptance drill
// over the real HTTP API: persistent ENOSPC makes submissions return
// 503 with Retry-After (never a dropped-but-acked campaign), /readyz
// semantics (Ready) fail, and service recovers once the faults clear.
// The campaign accepted before the fault finishes after the disk
// recovers: its results cannot become durable while the one disk under
// the journal is stuck, so its worker is told to retry them.
func TestStorageDegradedHTTP503AndRecovery(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s, _ := newHarness(t, Config{}, 1, func(c *dist.Config) { c.FS = inj })
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

	inj.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for s.Ready() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready after faults cleared: %v", s.Ready())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Graceful degradation, not a loss: the campaign accepted before the
	// disk died runs to completion once its results can be made durable.
	waitState(t, s, acc.ID, StateDone)
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

// TestQueueFormatFrozen pins the import against bytes recorded from the
// commit before internal/wal: a queue.snapshot + queue.log pair holding
// a campaign in every lifecycle state, with start records, replays
// through the import New uses to the fold that commit computed.
func TestQueueFormatFrozen(t *testing.T) {
	golden := filepath.Join("testdata", "golden")
	want, err := os.ReadFile(filepath.Join(golden, "fold.json"))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := importQueue(nil, golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := queueFingerprint(qs) + "\n"; got != string(want) {
		t.Fatalf("golden files replay to\n%swant\n%s", got, want)
	}
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
