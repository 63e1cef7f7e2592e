package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/faultfs"
	"spice/internal/trace"
)

func testSpec2() campaign.Spec {
	return campaign.Spec{
		Kappas:     []float64{300},
		Velocities: []float64{800, 1600},
		Replicas:   2,
		Distance:   3,
		Seed:       77,
	}
}

// TestConcurrentCampaignsBitIdentical runs two tenants' campaigns at
// the same time over one worker fleet and requires each merged result
// to be bit-identical to its own single-process baseline — scheduling
// interleaves placement, never results.
func TestConcurrentCampaignsBitIdentical(t *testing.T) {
	specA, specB := testSpec(), testSpec2()
	wantA, wantB := localBaseline(t, specA), localBaseline(t, specB)

	co := newCoordinator(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 3, nil)

	var (
		wg         sync.WaitGroup
		gotA, gotB map[campaign.Combo][]*trace.WorkLog
		errA, errB error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotA, errA = co.RunTagged(specA, CampaignTag{Tenant: "alice"})
	}()
	go func() {
		defer wg.Done()
		gotB, errB = co.RunTagged(specB, CampaignTag{Tenant: "bob"})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("RunTagged: alice=%v bob=%v", errA, errB)
	}
	requireBitIdentical(t, wantA, gotA)
	requireBitIdentical(t, wantB, gotB)
}

// TestSchedulerGatesCampaign wires a Scheduler that withholds every
// other campaign until the first has fully drained — the quota/backfill
// primitive — and requires no job of the held campaign to start early.
func TestSchedulerGatesCampaign(t *testing.T) {
	co := newCoordinator(t, nil)
	co.SetScheduler(SchedulerFunc(func(now time.Time, camps []CampaignView) []int {
		// Offer only the oldest unfinished campaign (strict FIFO drain).
		best := -1
		for i, v := range camps {
			if v.Done == v.Total {
				continue
			}
			if best == -1 || v.Seq < camps[best].Seq {
				best = i
			}
		}
		if best == -1 {
			return nil
		}
		return []int{best}
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, nil)

	var (
		wg     sync.WaitGroup
		doneA  time.Time
		firstB time.Time
		mu     sync.Mutex
	)
	// Campaign A first; give it a head start so its seq is lower.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := co.RunTagged(testSpec(), CampaignTag{Tenant: "a"}); err != nil {
			t.Error(err)
		}
		mu.Lock()
		doneA = time.Now()
		mu.Unlock()
	}()
	time.Sleep(50 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := co.RunTagged(testSpec2(), CampaignTag{Tenant: "b"}); err != nil {
			t.Error(err)
		}
	}()
	// Poll B's view: it must stay fully pending until A completes.
	for {
		time.Sleep(10 * time.Millisecond)
		views := co.Campaigns()
		var a, b *CampaignView
		for i := range views {
			switch views[i].Tenant {
			case "a":
				a = &views[i]
			case "b":
				b = &views[i]
			}
		}
		if b != nil && (b.Leased > 0 || b.Done > 0) {
			mu.Lock()
			started := firstB
			if started.IsZero() {
				firstB = time.Now()
				started = firstB
			}
			mu.Unlock()
			if a != nil && a.Done != a.Total {
				t.Fatalf("gated campaign got work while the first still had %d jobs open",
					a.Total-a.Done)
			}
			_ = started
			break
		}
		if a == nil && b == nil {
			break // both finished between polls
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if !firstB.IsZero() && firstB.Before(doneA) {
		t.Fatalf("campaign b first work at %v, before a finished at %v", firstB, doneA)
	}
}

// TestCancelCampaign submits a campaign with no workers attached and
// cancels it; the blocked RunTagged call must return ErrCampaignCanceled.
func TestCancelCampaign(t *testing.T) {
	co := newCoordinator(t, nil)
	spec := testSpec()
	key, err := SpecKey(spec, CampaignTag{Tenant: "t", Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := co.RunTagged(spec, CampaignTag{Tenant: "t", Name: "doomed"})
		errCh <- err
	}()
	// Wait for the campaign to appear, then cancel it by key.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(co.Campaigns()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never installed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ok, err := co.CancelCampaign(key); !ok || err != nil {
		t.Fatalf("CancelCampaign = %v, %v: found nothing to cancel", ok, err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCampaignCanceled) {
			t.Fatalf("RunTagged returned %v, want ErrCampaignCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunTagged did not return after cancel")
	}
	if ok, _ := co.CancelCampaign(key); ok {
		t.Fatal("second cancel reported success")
	}
}

// TestCampaignRecordsReplay: the journal alone records a campaign's
// acceptance, cancel and failure. Install returns only once the campaign
// record (with its submission time) is durable and installs nothing when
// it is not; a cancel is journaled even for a key that is not active; a
// job out of attempts journals its campaign's failure; and a coordinator
// opened over the directory replays all three.
func TestCampaignRecordsReplay(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	co := newCoordinator(t, func(c *Config) {
		c.StateDir, c.FS = dir, inj
		c.StorageRetries = 0
		// A short TTL keeps the backoff between the job's eight failures
		// short.
		c.LeaseTTL, c.BeatInterval = 200*time.Millisecond, 20*time.Millisecond
	})
	at := time.Unix(1700000000, 0).UTC()
	canceled, failed := CampaignTag{Tenant: "a"}, CampaignTag{Tenant: "b"}
	in, err := co.Install(testSpec(), canceled, at)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailAt(1, faultfs.EIO) // the campaign record's write
	if _, err := co.Install(testSpec2(), CampaignTag{Tenant: "refused"}, at); err == nil {
		t.Fatal("Install succeeded although its campaign record was refused")
	}
	if n := len(co.Campaigns()); n != 1 {
		t.Fatalf("%d campaigns active after a refused install, want 1", n)
	}
	key, _ := SpecKey(testSpec(), canceled)
	if ok, err := co.CancelCampaign(key); !ok || err != nil {
		t.Fatalf("CancelCampaign = %v, %v", ok, err)
	}
	if _, err := in.Wait(); !errors.Is(err, ErrCampaignCanceled) {
		t.Fatalf("Wait = %v, want ErrCampaignCanceled", err)
	}
	if ok, err := co.CancelCampaign("c-elsewhere"); ok || err != nil {
		t.Fatalf("cancel of an inactive key = %v, %v, want false, nil", ok, err)
	}

	in, err = co.Install(singleJobSpec(), failed, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// Eight failures run the job out of attempts. They rotate over three
	// sites, so no site reaches its third strike, which quarantines it,
	// while it still has a failure to report.
	var clients []*testClient
	for i := 0; i < 3; i++ {
		clients = append(clients, dialSiteClient(t, co.Listener.Addr().String(), fmt.Sprintf("w%d", i), fmt.Sprintf("s%d", i)))
	}
	for i := 0; i < 8; i++ {
		tc := clients[i%3]
		job := tc.next().Job
		tc.rt(&request{Type: msgFail, JobID: job.ID, Attempt: job.Attempt, Err: "boom"})
	}
	_, werr := in.Wait()
	if werr == nil {
		t.Fatal("a campaign whose only job ran out of attempts succeeded")
	}
	for _, tc := range clients {
		tc.conn.Close()
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	got := map[string]ReplayedCampaign{}
	for _, rc := range newCoordinator(t, func(c *Config) { c.StateDir = dir }).Replayed() {
		got[rc.Key] = rc
	}
	failedKey, _ := SpecKey(singleJobSpec(), failed)
	if rc := got[key]; !rc.Canceled || !rc.At.Equal(at) || rc.Err != "" || rc.Tag != canceled || len(rc.Spec) == 0 {
		t.Errorf("canceled campaign replayed as %+v", rc)
	}
	if rc := got[failedKey]; rc.Canceled || rc.Err != werr.Error() || rc.Tag != failed {
		t.Errorf("failed campaign replayed as %+v, want error %q", rc, werr)
	}
	if rc := got["c-elsewhere"]; !rc.Canceled || rc.Spec != nil {
		t.Errorf("cancel of an inactive key replayed as %+v", rc)
	}
	if len(got) != 3 {
		t.Errorf("replayed %d campaigns, want 3 (the refused install left a trace): %+v", len(got), got)
	}
}

// TestRunTaggedDuplicateKeyRejected: the same (spec, tag) submission
// cannot be active twice — the key scopes job IDs and journal replay.
func TestRunTaggedDuplicateKeyRejected(t *testing.T) {
	co := newCoordinator(t, nil)
	spec := testSpec()
	tag := CampaignTag{Tenant: "t"}
	go co.RunTagged(spec, tag) //nolint:errcheck // canceled via Close in cleanup
	deadline := time.Now().Add(5 * time.Second)
	for len(co.Campaigns()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never installed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := co.RunTagged(spec, tag); err == nil {
		t.Fatal("duplicate (spec, tag) accepted")
	}
	key, _ := SpecKey(spec, tag)
	co.CancelCampaign(key)
}

// TestSpecKeyStableAndTagScoped: the key is deterministic, tag-scoped,
// and the zero tag reproduces the legacy untagged key so old journals
// replay under new code.
func TestSpecKeyStableAndTagScoped(t *testing.T) {
	spec := testSpec()
	k1, err := SpecKey(spec, CampaignTag{})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := SpecKey(spec, CampaignTag{})
	if k1 != k2 {
		t.Fatalf("SpecKey not deterministic: %s vs %s", k1, k2)
	}
	specJSON, _ := json.Marshal(spec)
	if legacy := campaignKeyTagged(CampaignTag{}, specJSON); legacy != k1 {
		t.Fatalf("zero-tag key %s != legacy key %s", k1, legacy)
	}
	kt, _ := SpecKey(spec, CampaignTag{Tenant: "alice"})
	if kt == k1 {
		t.Fatal("tagged key identical to untagged key")
	}
	kn, _ := SpecKey(spec, CampaignTag{Tenant: "alice", Name: "second"})
	if kn == kt {
		t.Fatal("Name did not scope the key")
	}
}

// TestJournalInterleavedCampaignsReplay runs two tagged campaigns
// concurrently against one state dir, then replays the journal cold and
// requires both campaigns' records to be attributed to their own key.
func TestJournalInterleavedCampaignsReplay(t *testing.T) {
	dir := t.TempDir()
	co := newCoordinator(t, func(c *Config) { c.StateDir = dir })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(t, ctx, co, 2, nil)

	specA, specB := testSpec(), testSpec2()
	tagA := CampaignTag{Tenant: "alice", Priority: 2}
	tagB := CampaignTag{Tenant: "bob"}
	var wg sync.WaitGroup
	wg.Add(2)
	var errA, errB error
	go func() { defer wg.Done(); _, errA = co.RunTagged(specA, tagA) }()
	go func() { defer wg.Done(); _, errB = co.RunTagged(specB, tagB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v / %v", errA, errB)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	jn, rep, _, err := openJournal(journalConfig(nil, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	keyA, _ := SpecKey(specA, tagA)
	keyB, _ := SpecKey(specB, tagB)
	ca, cb := rep.campaigns[keyA], rep.campaigns[keyB]
	if ca == nil || cb == nil {
		t.Fatalf("replay missing campaigns: a=%v b=%v (keys %v)", ca != nil, cb != nil, len(rep.campaigns))
	}
	if len(ca.done) != len(specA.Tasks()) {
		t.Fatalf("campaign a replay has %d done jobs, want %d", len(ca.done), len(specA.Tasks()))
	}
	if len(cb.done) != len(specB.Tasks()) {
		t.Fatalf("campaign b replay has %d done jobs, want %d", len(cb.done), len(specB.Tasks()))
	}
	for id := range ca.done {
		if len(id) < len(keyA) || id[:len(keyA)] != keyA {
			t.Fatalf("campaign a done job %q not scoped by its key %s", id, keyA)
		}
	}
}

// TestCampaignMatchesCampaigns: the one-campaign view a status poll reads
// is the entry Campaigns returns for the same key, for every active
// campaign (one with a job in flight), and an unknown key has none.
func TestCampaignMatchesCampaigns(t *testing.T) {
	co := newCoordinator(t, nil)
	at := time.Unix(1700000000, 0).UTC()
	for _, tag := range []CampaignTag{{Tenant: "a"}, {Tenant: "b", Priority: 2}} {
		if _, err := co.Install(testSpec(), tag, at); err != nil {
			t.Fatal(err)
		}
	}
	co.mu.Lock()
	mustGrant(t, co.leases, co.leases.camps[1].jobs[0], testConn("w", "s"), at, false)
	co.mu.Unlock()

	views := co.Campaigns()
	if len(views) != 2 || views[1].Leased != 1 {
		t.Fatalf("Campaigns = %+v, want two campaigns, the second with one lease", views)
	}
	for _, want := range views {
		if got, ok := co.Campaign(want.Key); !ok || got != want {
			t.Fatalf("Campaign(%s) = %+v, %v; Campaigns has %+v", want.Key, got, ok, want)
		}
	}
	if v, ok := co.Campaign("c-unknown"); ok {
		t.Fatalf("Campaign of an unknown key = %+v, true", v)
	}
}
