package dist

// Socket-free, sleep-free tests of the lease table (leases.go): every
// rule about what a lease is and when it ends, driven with explicit
// times against a hand-built table.

import (
	"fmt"
	"testing"
	"time"

	"spice/internal/trace"
	"spice/internal/wire"
)

var t0 = time.Unix(1_000_000, 0)

const testTTL = 10 * time.Second

// newTestTable builds a table holding one campaign of n pending jobs
// named c.j0 … (a testTTL table: 100 ms–4 s retry backoff).
func newTestTable(n int) (*leaseTable, *campaignRun) {
	tb := newLeaseTable(testTTL)
	camp := &campaignRun{key: "c", remaining: n, done: make(chan struct{})}
	for i := 0; i < n; i++ {
		camp.jobs = append(camp.jobs, &job{id: fmt.Sprintf("c.j%d", i), camp: camp})
	}
	tb.add(camp)
	return tb, camp
}

func testConn(name, site string) *connState {
	cs := newConnState()
	cs.sess = wire.Session{Name: name, Site: site}
	return cs
}

// lease grants j to cs the way an assign does and fails the test if the
// table refuses.
func mustGrant(t *testing.T, tb *leaseTable, j *job, cs *connState, now time.Time, speculative bool) *lease {
	t.Helper()
	l := tb.grant(j, cs, now, j.attempts+1, speculative)
	if l == nil {
		t.Fatalf("grant of %s to %s (speculative %v) refused", j.id, cs.sess.Name, speculative)
	}
	return l
}

// TestLeaseTableExpiryBoundary: a lease lives through lastBeat+TTL inclusive
// and ends on the first instant after; a beat moves the boundary.
func TestLeaseTableExpiryBoundary(t *testing.T) {
	tb, camp := newTestTable(1)
	j, cs := camp.jobs[0], testConn("w", "s")
	mustGrant(t, tb, j, cs, t0, false)
	if rvs := tb.expire(camp, t0.Add(testTTL), testTTL); len(rvs) != 0 || j.state != stateLeased {
		t.Fatalf("expired exactly at lastBeat+TTL: %+v", rvs)
	}
	if l, adopted := tb.beat(j, cs, 1, t0.Add(time.Second)); l == nil || adopted {
		t.Fatalf("beat from the holder: lease %v, adopted %v", l, adopted)
	}
	if rvs := tb.expire(camp, t0.Add(testTTL+time.Second), testTTL); len(rvs) != 0 {
		t.Fatal("expired at the old boundary after a beat moved it")
	}
	rvs := tb.expire(camp, t0.Add(testTTL+time.Second+1), testTTL)
	if len(rvs) != 1 || len(rvs[0].leases) != 1 || !rvs[0].requeued || j.state != statePending || j.leases != nil {
		t.Fatalf("one tick past lastBeat+TTL: revocations %+v, job state %v", rvs, j.state)
	}
}

// TestLeaseTableRevokeRequeue: revoking a job's last lease sends it back to
// pending behind the keyed backoff; revoking one of two leaves it leased
// and untouched; the eighth attempt's loss fails the campaign.
func TestLeaseTableRevokeRequeue(t *testing.T) {
	tb, camp := newTestTable(2)
	j, other := camp.jobs[0], camp.jobs[1]
	a, b := testConn("a", "site-a"), testConn("b", "site-b")
	la := mustGrant(t, tb, j, a, t0, false)
	j.straggler = true
	lb := mustGrant(t, tb, j, b, t0, true)
	mustGrant(t, tb, other, a, t0, false)

	// A non-last lease: the hedge keeps the job leased, nothing requeues.
	now := t0.Add(time.Second)
	rv := tb.revoke(j, now, func(l *lease) bool { return l == la })
	if len(rv.leases) != 1 || rv.leases[0] != la || rv.requeued {
		t.Fatalf("revoking the primary of a hedged job: %+v", rv)
	}
	if j.state != stateLeased || len(j.leases) != 1 || j.leases[0] != lb || !j.straggler || !j.notBefore.IsZero() {
		t.Fatalf("job after losing one of two leases: state %v leases %d straggler %v notBefore %v",
			j.state, len(j.leases), j.straggler, j.notBefore)
	}
	// A revoke that matches nothing changes nothing.
	if rv := tb.revoke(j, now, func(l *lease) bool { return l == la }); len(rv.leases) != 0 || rv.requeued || j.state != stateLeased {
		t.Fatalf("revoking a lease already gone: %+v", rv)
	}
	// The last lease: pending, flag cleared, backoff keyed by (job, attempts).
	rv = tb.revoke(j, now, func(l *lease) bool { return l == lb })
	want := now.Add(tb.retry.Keyed(j.id, 2))
	if !rv.requeued || j.state != statePending || j.leases != nil || j.straggler || !j.notBefore.Equal(want) {
		t.Fatalf("job after losing its last lease: requeued %v state %v straggler %v notBefore %v, want pending at %v",
			rv.requeued, j.state, j.straggler, j.notBefore, want)
	}
	if d := j.notBefore.Sub(now); d < 100*time.Millisecond || d >= 200*time.Millisecond {
		t.Fatalf("second-attempt backoff %v outside [100ms, 200ms)", d)
	}
	if camp.failErr != nil {
		t.Fatalf("campaign failed with attempts left: %v", camp.failErr)
	}
	// drop takes a connection's leases in every job and only those.
	if rvs := tb.drop(b, now); len(rvs) != 0 {
		t.Fatalf("dropping a connection without leases revoked %+v", rvs)
	}
	if rvs := tb.drop(a, now); len(rvs) != 1 || rvs[0].job != other || !rvs[0].requeued {
		t.Fatalf("dropping a's connection: %+v", rvs)
	}

	// Grants three to eight: the eighth loss is out of attempts.
	for attempt := 3; attempt <= 8; attempt++ {
		if l := mustGrant(t, tb, j, a, j.notBefore, false); l.attempt != attempt {
			t.Fatalf("grant %d carries attempt %d", attempt, l.attempt)
		}
		rv = tb.revoke(j, j.notBefore, func(*lease) bool { return true })
		if exhausted := camp.failErr != nil; !rv.requeued || exhausted != (attempt == 8) {
			t.Fatalf("loss of attempt %d: requeued %v, campaign error %v", attempt, rv.requeued, camp.failErr)
		}
	}
	select {
	case <-camp.done:
	default:
		t.Fatal("exhausted job did not finish its campaign")
	}
}

// TestLeaseTableAdoptionAndReattach: a beat for a pending job adopts the
// worker under the worker's own attempt number; any beat for a job
// leased elsewhere gets nothing — including one from the worker's own
// new connection while its old one still holds the lease. A worker
// re-attaches only by adoption, once its dropped connection's lease is
// revoked.
func TestLeaseTableAdoptionAndReattach(t *testing.T) {
	tb, camp := newTestTable(2)
	j := camp.jobs[0]
	j.attempts = 2 // replayed history: two grants before the restart
	w := testConn("w", "s")
	l, adopted := tb.beat(j, w, 5, t0)
	if l == nil || !adopted || l.attempt != 5 || j.attempts != 5 || j.state != stateLeased || l.owner != w || l.speculative {
		t.Fatalf("adoption with attempt 5: lease %+v adopted %v job attempts %d", l, adopted, j.attempts)
	}
	if !l.granted.Equal(t0) || !l.lastBeat.Equal(t0) {
		t.Fatalf("adopted lease stamped %v/%v, want %v", l.granted, l.lastBeat, t0)
	}
	// An attempt-less beat (old worker) adopts under the table's count.
	j2 := camp.jobs[1]
	j2.attempts = 2
	if l2, adopted := tb.beat(j2, w, 0, t0); l2 == nil || !adopted || l2.attempt != 2 || j2.attempts != 2 {
		t.Fatalf("adoption without an attempt: lease %+v adopted %v", l2, adopted)
	}

	// A stranger beating for the leased job has lost it.
	if got, _ := tb.beat(j, testConn("x", "s2"), 5, t0); got != nil {
		t.Fatal("a stranger's beat matched a lease")
	}
	// The worker's new connection, old one still live: also lost.
	w2 := testConn("w", "s-new")
	if got, _ := tb.beat(j, w2, 5, t0); got != nil {
		t.Fatal("a second connection's beat took over a live connection's lease")
	}
	// The old connection drops: its leases are revoked, and the new
	// connection's next beat adopts the job under the same attempt.
	later := t0.Add(3 * time.Second)
	if rvs := tb.drop(w, later); len(rvs) != 2 || j.state != statePending || camp.failErr != nil {
		t.Fatalf("dropping the old connection: %+v, job state %v, campaign error %v", rvs, j.state, camp.failErr)
	}
	got, adopted := tb.beat(j, w2, 5, later)
	if got == nil || !adopted || got.owner != w2 || got.site != "s-new" || got.attempt != 5 || !got.granted.Equal(later) || len(j.leases) != 1 {
		t.Fatalf("re-attach by adoption: lease %+v adopted %v", got, adopted)
	}
	if again, adopted := tb.beat(j, w2, 5, later); again != got || adopted {
		t.Fatalf("beat after adoption: adopted %v", adopted)
	}
}

// TestLeaseTableFarthestCheckpointWins: two leases stream checkpoints of one
// trajectory; whichever order they arrive in, the job keeps the image
// farthest along, each lease keeps its own delta base and rate.
func TestLeaseTableFarthestCheckpointWins(t *testing.T) {
	far, near := []byte(`{"Steps":300}`), []byte(`{"Steps":100}`)
	for _, order := range []string{"near then far", "far then near"} {
		tb, camp := newTestTable(1)
		j := camp.jobs[0]
		slow := mustGrant(t, tb, j, testConn("a", "site-a"), t0, false)
		j.straggler = true
		fast := mustGrant(t, tb, j, testConn("b", "site-b"), t0, true)
		now := t0.Add(2 * time.Second)
		var farWon, nearWon bool
		if order == "near then far" {
			_, nearWon = j.progress(slow, now, near, 100)
			_, farWon = j.progress(fast, now, far, 300)
		} else {
			_, farWon = j.progress(fast, now, far, 300)
			_, nearWon = j.progress(slow, now, near, 100)
		}
		if string(j.ckpt) != string(far) || j.ckptSteps != 300 || !farWon {
			t.Errorf("%s: job holds %s (%d steps), far image accepted %v", order, j.ckpt, j.ckptSteps, farWon)
		}
		if wantNear := order == "near then far"; nearWon != wantNear {
			t.Errorf("%s: near image became the resume point: %v, want %v", order, nearWon, wantNear)
		}
		if string(slow.base) != string(near) || string(fast.base) != string(far) {
			t.Errorf("%s: delta bases crossed: slow %s fast %s", order, slow.base, fast.base)
		}
		if slow.rate.v != 50 || fast.rate.v != 150 || slow.steps != 100 || fast.steps != 300 {
			t.Errorf("%s: rates %v/%v steps %d/%d, want 50/150 and 100/300", order, slow.rate.v, fast.rate.v, slow.steps, fast.steps)
		}
	}

	// A checkpoint that does not advance leaves rate and stepsAt alone; an
	// equal step count still replaces the resume image (>=, so a restarted
	// lineage re-seeds it).
	tb, camp := newTestTable(1)
	j := camp.jobs[0]
	l := mustGrant(t, tb, j, testConn("a", "s"), t0, false)
	j.progress(l, t0.Add(time.Second), near, 100)
	rate, farthest := j.progress(l, t0.Add(5*time.Second), near, 100)
	if rate != 0 || !farthest || !l.stepsAt.Equal(t0.Add(time.Second)) || l.rate.v != 100 {
		t.Fatalf("repeat checkpoint: rate %v farthest %v stepsAt %v lease rate %v", rate, farthest, l.stepsAt, l.rate.v)
	}
	// The next grant resumes from the farthest image and seeds its base.
	tb.revoke(j, t0, func(*lease) bool { return true })
	if l2 := mustGrant(t, tb, j, testConn("c", "s"), t0, false); string(l2.base) != string(near) || l2.steps != 100 {
		t.Fatalf("resumed lease base %s steps %d", l2.base, l2.steps)
	}
}

// TestLeaseTablePickAndHedge: pending jobs go first in offer then task order,
// a backing-off job reports the soonest wait instead, and a flagged
// straggler is hedged once, only onto a different site.
func TestLeaseTablePickAndHedge(t *testing.T) {
	tb, first := newTestTable(2)
	second := &campaignRun{key: "d", remaining: 1, done: make(chan struct{})}
	second.jobs = []*job{{id: "d.j0", camp: second}}
	tb.add(second)
	order := []*campaignRun{second, first}

	if j, spec, _, _ := tb.pick(order, "s", t0, true); j != second.jobs[0] || spec {
		t.Fatalf("pick = %v, want the first job of the first offered campaign", j)
	}
	if j, _, _, _ := tb.pick(tb.camps, "s", t0, true); j != first.jobs[0] {
		t.Fatalf("pick in install order = %v", j)
	}
	if j, _, _, _ := tb.pick(nil, "s", t0, true); j != nil {
		t.Fatal("picked a job from a campaign that was not offered")
	}

	// Everything pending backs off: no job, the shortest wait.
	second.jobs[0].notBefore = t0.Add(5 * time.Second)
	first.jobs[0].notBefore = t0.Add(2 * time.Second)
	first.jobs[1].notBefore = t0.Add(3 * time.Second)
	if j, _, soonest, _ := tb.pick(order, "s", t0, true); j != nil || soonest != 2*time.Second {
		t.Fatalf("all backing off: job %v soonest %v, want none and 2s", j, soonest)
	}
	if j, _, _, _ := tb.pick(order, "s", t0.Add(2*time.Second), true); j != first.jobs[0] {
		t.Fatal("a job is not runnable the instant its backoff ends")
	}
	// Failed and finished campaigns are skipped.
	second.failErr = fmt.Errorf("dead")
	first.jobs[0].notBefore, first.jobs[1].notBefore = time.Time{}, time.Time{}
	if j, _, _, _ := tb.pick(order, "s", t0, true); j != first.jobs[0] {
		t.Fatal("picked from a failed campaign")
	}

	// Hedging. Both jobs leased on site-a; j1 is flagged.
	a := testConn("a", "site-a")
	j0, j1 := first.jobs[0], first.jobs[1]
	mustGrant(t, tb, j0, a, t0, false)
	primary := mustGrant(t, tb, j1, a, t0, false)
	if j, _, soonest, elsewhere := tb.pick(order, "site-b", t0, true); j != nil || soonest != 0 || elsewhere {
		t.Fatalf("nothing pending, nothing flagged: job %v soonest %v elsewhere %v", j, soonest, elsewhere)
	}
	tb.flagStragglers(first, func(j *job, l *lease) bool { return j == j1 && l == primary })
	if !j1.straggler || j0.straggler {
		t.Fatalf("flags: j0 %v j1 %v, want only j1", j0.straggler, j1.straggler)
	}
	if j, _, _, _ := tb.pick(order, "site-b", t0, false); j != nil {
		t.Fatal("hedged with hedging off")
	}
	if j, _, _, elsewhere := tb.pick(order, "site-a", t0, true); j != nil || !elsewhere {
		t.Fatalf("poll from the straggling site itself: job %v elsewhere %v, want none and a hedge for another site", j, elsewhere)
	}
	if tb.grant(j1, testConn("a2", "site-a"), t0, j1.attempts+1, true) != nil {
		t.Fatal("grant put two leases of one job on one site")
	}
	if tb.grant(j1, testConn("b", "site-b"), t0, j1.attempts+1, false) != nil {
		t.Fatal("grant gave a leased job a second primary")
	}
	if tb.grant(j0, a, t0, j0.attempts+1, true) != nil || tb.grant(second.jobs[0], a, t0, 1, true) != nil {
		t.Fatal("grant hedged a job without exactly one lease elsewhere")
	}
	j, spec, _, _ := tb.pick(order, "site-b", t0, true)
	if j != j1 || !spec {
		t.Fatalf("pick for site-b = %v speculative %v, want the flagged job as a hedge", j, spec)
	}
	hedge := mustGrant(t, tb, j1, testConn("b", "site-b"), t0, true)
	if !hedge.speculative || hedge.attempt != 2 || len(j1.leases) != 2 {
		t.Fatalf("hedge lease %+v, job leases %d", hedge, len(j1.leases))
	}
	// Only one hedge: a third site gets nothing, and an already hedged
	// job is not offered for flagging again.
	if j, _, _, elsewhere := tb.pick(order, "site-c", t0, true); j != nil || elsewhere {
		t.Fatal("a second hedge was offered")
	}
	if tb.grant(j1, testConn("c", "site-c"), t0, 3, true) != nil {
		t.Fatal("grant gave a job a third lease")
	}
	tb.flagStragglers(first, func(j *job, _ *lease) bool {
		if j == j1 {
			t.Error("a job with two leases was offered for flagging")
		}
		return false
	})
	// Leased work counts each leased job's pull once, hedged or not.
	first.spec.Distance = 8
	j0.task.Combo.VAns, j1.task.Combo.VAns = 16, 4
	if v := tb.views(); len(v) != 2 || v[0].Key != "c" || v[0].Leased != 2 || v[0].LeasedNs != 2.5 || v[0].Pending != 0 || v[1].Pending != 1 || v[1].Total != 1 || v[1].LeasedNs != 0 {
		t.Fatalf("views = %+v", v)
	}
}

// TestLeaseTableSettle: who wins a result, and what the commit leaves behind.
func TestLeaseTableSettle(t *testing.T) {
	log := &trace.WorkLog{}
	a, b := testConn("a", "site-a"), testConn("b", "site-b")
	for _, tc := range []struct {
		name    string
		hedged  bool // grant a hedge to b beside a's primary
		revoked bool // a's lease lapsed before the result arrived
		from    *connState
		attempt int
		accept  bool
		winner  string // worker name of the winning lease, "" for none
		losers  int
	}{
		{"primary wins alone", false, false, a, 1, true, "a", 0},
		{"attempt-less result from the holder", false, false, a, 0, true, "a", 0},
		{"primary wins the race", true, false, a, 1, true, "a", 1},
		{"hedge wins the race", true, false, b, 2, true, "b", 1},
		{"stale attempt from the holder", false, false, a, 7, false, "", 0},
		{"result from a connection without a lease", false, false, b, 1, false, "", 0},
		{"result for a pending job", false, true, a, 1, true, "", 0},
	} {
		tb, camp := newTestTable(2)
		j := camp.jobs[0]
		mustGrant(t, tb, j, a, t0, false)
		if tc.hedged {
			j.straggler = true
			mustGrant(t, tb, j, b, t0, true)
		}
		if tc.revoked {
			tb.revoke(j, t0, func(*lease) bool { return true })
		}
		winner, accept := j.claim(tc.from, tc.attempt)
		name := ""
		if winner != nil {
			name = winner.worker
		}
		if accept != tc.accept || name != tc.winner {
			t.Errorf("%s: claim = (%q, %v), want (%q, %v)", tc.name, name, accept, tc.winner, tc.accept)
			continue
		}
		if !accept {
			if j.state == stateDone || tb.doneJobs[j.id] {
				t.Errorf("%s: a refused result changed the table", tc.name)
			}
			continue
		}
		losers := tb.settle(j, winner, log)
		if len(losers) != tc.losers || (tc.losers == 1 && losers[0] == winner) {
			t.Errorf("%s: losers %v", tc.name, losers)
		}
		if j.state != stateDone || j.leases != nil || j.straggler || j.log != log || !tb.doneJobs[j.id] || camp.remaining != 1 {
			t.Errorf("%s: after settle: state %v leases %v straggler %v remaining %d", tc.name, j.state, j.leases, j.straggler, camp.remaining)
		}
		// First delivery won; everything later is a duplicate, and a done
		// job neither beats nor takes a lease again.
		if _, again := j.claim(b, 2); again {
			t.Errorf("%s: a second result for a done job was accepted", tc.name)
		}
		if tb.grant(j, a, t0, 9, false) != nil {
			t.Errorf("%s: a done job was leased again", tc.name)
		}
		select {
		case <-camp.done:
			t.Errorf("%s: campaign finished with a job remaining", tc.name)
		default:
		}
		tb.settle(camp.jobs[1], nil, log)
		select {
		case <-camp.done:
		default:
			t.Errorf("%s: last result did not finish the campaign", tc.name)
		}
		if camp.failErr != nil {
			t.Errorf("%s: finished campaign carries %v", tc.name, camp.failErr)
		}
		tb.remove(camp)
		if len(tb.camps) != 0 || len(tb.jobsByID) != 0 || !tb.doneJobs[j.id] {
			t.Errorf("%s: after remove: %d campaigns, %d jobs, done remembered %v", tc.name, len(tb.camps), len(tb.jobsByID), tb.doneJobs[j.id])
		}
	}
}
