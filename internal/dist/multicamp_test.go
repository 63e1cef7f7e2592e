package dist

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"spice/internal/campaign"
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
	if !co.CancelCampaign(key) {
		t.Fatal("CancelCampaign found nothing to cancel")
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCampaignCanceled) {
			t.Fatalf("RunTagged returned %v, want ErrCampaignCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunTagged did not return after cancel")
	}
	if co.CancelCampaign(key) {
		t.Fatal("second cancel reported success")
	}
}

// TestCancelBeforeInstall: a cancel that reaches the coordinator before
// the campaign's Run installs it is not lost — the control plane
// dispatches a campaign on a goroutine, so a tenant's cancel can overtake
// it. That Run returns ErrCampaignCanceled without installing, so no
// lease goes out even to a worker already waiting; and the mark is used
// up, so the next Run of the same key installs.
func TestCancelBeforeInstall(t *testing.T) {
	co := newCoordinator(t, nil)
	spec, tag := testSpec(), CampaignTag{Tenant: "t", Name: "early"}
	key, err := SpecKey(spec, tag)
	if err != nil {
		t.Fatal(err)
	}
	idle := dialTestClient(t, co.Listener.Addr().String(), "idle")
	if err := idle.Encode(&request{Type: msgNext}); err != nil {
		t.Fatal(err)
	}
	waitParked(t, co, 1)

	if co.CancelCampaign(key) {
		t.Fatal("CancelCampaign reported canceling a campaign that was not installed")
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := co.RunTagged(spec, tag)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCampaignCanceled) {
			t.Fatalf("RunTagged returned %v, want ErrCampaignCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancel was lost: RunTagged installed the campaign and kept running")
	}
	if st := co.Stats(); st.Assignments != 0 || len(co.Campaigns()) != 0 {
		t.Fatalf("a canceled campaign was installed: %d assignments, %d active", st.Assignments, len(co.Campaigns()))
	}

	runInBackground(t, co, spec, tag)
	var resp response
	if err := idle.Decode(&resp); err != nil || resp.Type != msgAssign {
		t.Fatalf("after the mark was used, the waiting poll got %+v (%v), want a job", resp, err)
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
