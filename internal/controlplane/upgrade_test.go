package controlplane

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spice/internal/campaign"
	"spice/internal/trace"
	"spice/internal/wal/waltest"
)

// TestReplayOlderStateDir replays a spiced -serve state directory written
// by a server that kept its own queue.log beside the coordinator's
// journal, SIGKILLed mid-campaign (testdata/upgrade/README.md says how
// it was made). Each campaign must come back in the state that server
// left it in: alice's done, carol's canceled (recorded only in
// queue.log), bob's running (one job done, the other's checkpoint
// spooled) and dave's accepted but never handed to the coordinator (in
// queue.log only) both queued. Both unfinished campaigns then finish
// bit-identical to LocalRunner — bob's from his spooled checkpoint — and
// a second restart, with the records this server added, replays every
// campaign to its final state.
func TestReplayOlderStateDir(t *testing.T) {
	dir, state := t.TempDir(), filepath.Join("testdata", "upgrade", "state")
	if err := os.Mkdir(filepath.Join(dir, "spool"), 0o755); err != nil {
		t.Fatal(err)
	}
	waltest.CopyDir(t, state, dir)
	waltest.CopyDir(t, filepath.Join(state, "spool"), filepath.Join(dir, "spool"))
	const alice, carol, bob, dave = "c-054af7d1", "c-5cd96f4c", "c-a14c84a1", "c-b822dcdd"
	order := []string{alice, carol, bob, dave}
	requireStates := func(s *Server, want map[string]State) {
		t.Helper()
		list := s.List("")
		if len(list) != len(order) {
			t.Fatalf("replayed %d campaigns, want %d: %+v", len(list), len(order), list)
		}
		for i, c := range list {
			if c.ID != order[i] {
				t.Fatalf("campaign %d is %s, want %s: not in submission order", i, c.ID, order[i])
			}
			if c.State != want[c.ID] || c.Submitted.IsZero() {
				t.Errorf("campaign %s (%s) replayed as %s submitted %v, want %s", c.ID, c.Tenant, c.State, c.Submitted, want[c.ID])
			}
		}
	}

	s, co := newHarness(t, Config{StateDir: dir}, 0)
	requireStates(s, map[string]State{alice: StateDone, carol: StateCanceled, bob: StateQueued, dave: StateQueued})
	if c, _ := s.Get(bob); c.Tenant != "bob" || c.Priority != 1 {
		t.Fatalf("bob's campaign lost its tag: %+v", c)
	}
	s.Start()
	startTestWorkers(t, co, 2)
	for _, id := range []string{bob, dave} {
		waitState(t, s, id, StateDone)
	}
	if st := co.Stats(); st.Resumes < 1 {
		t.Fatalf("no job resumed from the spooled checkpoint: %+v", st)
	}
	wantA, wantB := localBaseline(t, specA()), localBaseline(t, specB())
	for id, want := range map[string]map[campaign.Combo][]*trace.WorkLog{alice: wantA, bob: wantB, dave: wantB} {
		got, err := s.Result(id)
		if err != nil {
			t.Fatalf("result of %s: %v", id, err)
		}
		requireBitIdentical(t, want, got)
	}
	if _, err := s.Result(carol); !errors.Is(err, ErrNotDone) {
		t.Fatalf("result of the canceled campaign: %v, want ErrNotDone", err)
	}
	s.Close()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	s, _ = newHarness(t, Config{StateDir: dir}, 0)
	requireStates(s, map[string]State{alice: StateDone, carol: StateCanceled, bob: StateDone, dave: StateDone})
}
