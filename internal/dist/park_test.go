package dist

// The parked work poll: a poll that finds nothing runnable is held
// unanswered on its connection and answered the moment work can exist.
// One test per wake source (a campaign installed, a backoff run out, a
// straggler flagged, a quota slot freed, Close), the two properties that
// keep a big idle fleet cheap (parked polls are not requests in flight;
// a wake answers no more polls than there are jobs), and the bound that
// keeps a parked connection inside its peer's read watchdog. The
// socket-free ones drive dispatch and tick by hand, which is what their
// taking the time as an argument is for.

import (
	"context"
	"errors"
	"io/fs"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/faultfs"
	"spice/internal/obs"
	"spice/internal/trace"
)

// runInBackground installs spec under tag and returns the channel its
// RunTagged result arrives on, once the campaign is in the lease table.
// A test that does not finish the campaign leaves that to the
// coordinator's Close.
func runInBackground(t *testing.T, co *Coordinator, spec campaign.Spec, tag CampaignTag) <-chan error {
	t.Helper()
	before := len(co.Campaigns())
	done := make(chan error, 1)
	go func() {
		_, err := co.RunTagged(spec, tag)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(co.Campaigns()) == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never installed")
		}
	}
	return done
}

// waitParked blocks until exactly n polls are parked.
func waitParked(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); co.Stats().ParkedPolls != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d polls parked, want %d", co.Stats().ParkedPolls, n)
		}
	}
}

// mustPark dispatches one work poll from cs by hand and requires it parked.
func mustPark(t *testing.T, co *Coordinator, cs *connState, now time.Time) {
	t.Helper()
	if resp, answered := co.dispatch(cs, &request{Type: msgNext}, now); answered {
		t.Fatalf("poll from %s answered %+v, want it parked", cs.sess.Name, resp)
	}
}

// mustAssign dispatches one work poll from cs by hand and requires a job.
func mustAssign(t *testing.T, co *Coordinator, cs *connState, now time.Time) *wireJob {
	t.Helper()
	resp, answered := co.dispatch(cs, &request{Type: msgNext}, now)
	if !answered || resp.Type != msgAssign {
		t.Fatalf("poll from %s: answered %v with %+v, want a job", cs.sess.Name, answered, resp)
	}
	return resp.Job
}

// woken returns the reply a wake pass left for cs's parked poll, waiting
// up to within for it (0: it must be there already).
func woken(t *testing.T, cs *connState, within time.Duration) response {
	t.Helper()
	select {
	case resp := <-cs.wake:
		return resp
	default:
	}
	select {
	case resp := <-cs.wake:
		return resp
	case <-time.After(within):
		t.Fatalf("parked poll of %s not answered within %v", cs.sess.Name, within)
		return response{}
	}
}

// TestParkedPollWakesOnSubmit is the head the park exists to remove: two
// workers idle for longer than any poll hint used to last, a campaign is
// submitted, and its first lease goes out at once — to both workers, not
// to whichever happened to poll next — where it used to wait out the
// rest of somebody's sleep. The same run pins the three instruments to
// Stats: the parked-polls gauge, the park and the first-lease histograms.
func TestParkedPollWakesOnSubmit(t *testing.T) {
	events := obs.NewEventLog(nil, 1024)
	reg := obs.NewRegistry()
	co := newCoordinator(t, func(c *Config) {
		c.LeaseTTL, c.BeatInterval = 400*time.Millisecond, 20*time.Millisecond
		c.Events, c.Metrics = events, reg
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, co, "w0", nil)
	startWorker(t, ctx, co, "w1", nil)
	waitParked(t, co, 2)
	time.Sleep(300 * time.Millisecond) // the old idle hint was TTL/2 × [0.5, 1) = 100–200 ms
	waitParked(t, co, 2)
	if got := scrapeValue(t, reg, "spice_dist_parked_polls"); got != 2 {
		t.Fatalf("spice_dist_parked_polls = %v with Stats.ParkedPolls = 2", got)
	}

	if _, err := co.Run(testSpec()); err != nil {
		t.Fatal(err)
	}
	var start time.Time
	var grants []obs.Event
	for _, ev := range events.Recent(0) {
		switch ev.Name {
		case "campaign_start":
			start = ev.Time
		case "lease_granted":
			grants = append(grants, ev)
		}
	}
	if len(grants) < 2 || start.IsZero() {
		t.Fatalf("%d grants after campaign_start at %v", len(grants), start)
	}
	if wait := grants[0].Time.Sub(start); wait > 50*time.Millisecond {
		t.Fatalf("first lease %v after campaign_start, want < 50 ms", wait)
	}
	if wait := grants[1].Time.Sub(start); wait > 50*time.Millisecond || grants[0].Worker == grants[1].Worker {
		t.Fatalf("second lease %v after campaign_start to %s (first to %s), want both idle workers leased at once",
			wait, grants[1].Worker, grants[0].Worker)
	}
	if got := scrapeValue(t, reg, "spice_dist_first_lease_wait_seconds_count"); got != 1 {
		t.Fatalf("first-lease histogram holds %v observations after one campaign", got)
	}
	if got := scrapeValue(t, reg, "spice_dist_first_lease_wait_seconds_sum"); got > 0.05 {
		t.Fatalf("first-lease histogram says %v s, the events said < 50 ms", got)
	}
	if got := scrapeValue(t, reg, "spice_dist_poll_park_seconds_count"); got < 2 {
		t.Fatalf("park histogram holds %v observations after two parks ended in a lease", got)
	}
}

// scrapeValue renders reg and returns the sample called name.
func scrapeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s missing from scrape:\n%s", name, sb.String())
	return 0
}

// TestParkedPollsNotInflight: idle workers are not load. With more polls
// parked than the in-flight cap allows requests, nothing is in flight, a
// live poll is served by the scheduler rather than shed, and nothing was
// shed on the way there — if a parked poll counted as a request in
// processing, an idle fleet larger than the cap would shed itself.
func TestParkedPollsNotInflight(t *testing.T) {
	const maxInflight = 16
	co := newCoordinator(t, func(c *Config) {
		c.MaxInflight = maxInflight
		c.LeaseTTL = time.Minute // these clients poll once: no park may run out under them
	})
	addr := co.Listener.Addr().String()
	idle := make([]*testClient, maxInflight+50)
	for i := range idle {
		idle[i] = dialTestClient(t, addr, "idle")
		if err := idle[i].Encode(&request{Type: msgNext}); err != nil {
			t.Fatal(err)
		}
		waitParked(t, co, i+1) // one at a time, so the last dialed is the last parked
	}
	if st := co.Stats(); st.InflightRequests != 0 || st.RequestsShed != 0 {
		t.Fatalf("%d polls parked: %d in flight, %d shed; want 0 and 0", len(idle), st.InflightRequests, st.RequestsShed)
	}

	done := runInBackground(t, co, singleJobSpec(), CampaignTag{})
	// The install leased the job to the newest parked poll; everyone else
	// stays parked, and a poll arriving now goes through the scheduler.
	var assign response
	if err := idle[len(idle)-1].Decode(&assign); err != nil || assign.Type != msgAssign {
		t.Fatalf("newest parked poll answered %+v (%v), want the job", assign, err)
	}
	live := dialTestClient(t, addr, "live")
	if err := live.Encode(&request{Type: msgNext}); err != nil {
		t.Fatal(err)
	}
	waitParked(t, co, len(idle))
	if st := co.Stats(); st.RequestsShed != 0 {
		t.Fatalf("a live poll was shed behind %d parked ones (RequestsShed %d)", len(idle)-1, st.RequestsShed)
	}
	log := pullLog(t, &assign)
	if resp := idle[len(idle)-1].rt(&request{Type: msgResult, JobID: assign.Job.ID, Attempt: assign.Job.Attempt, Log: log}); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("result answered %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWakeAnswersOnlyRunnable is what replaced the fleet-size poll
// budget: 500 polls are parked, a 3-job campaign is installed, and the
// wake answers exactly 3 of them — the three parked last — with a lease
// each. The other 497 are not touched: no reply, no re-poll, still
// parked. There is no herd to de-synchronise because nobody is woken to
// find nothing.
func TestWakeAnswersOnlyRunnable(t *testing.T) {
	co := newCoordinator(t, nil)
	now := time.Now()
	fleet := make([]*connState, 500)
	for i := range fleet {
		fleet[i] = testConn("idle", "idle")
		mustPark(t, co, fleet[i], now)
	}
	spec := singleJobSpec()
	spec.Replicas = 3
	runInBackground(t, co, spec, CampaignTag{})
	for i, cs := range fleet {
		select {
		case resp := <-cs.wake:
			if i < len(fleet)-3 || resp.Type != msgAssign {
				t.Fatalf("parked poll %d of %d answered %+v; want leases for the last three only", i, len(fleet), resp)
			}
		default:
			if i >= len(fleet)-3 {
				t.Fatalf("parked poll %d of %d got no lease", i, len(fleet))
			}
		}
	}
	if st := co.Stats(); st.ParkedPolls != len(fleet)-3 || st.WorkPolls != int64(len(fleet)) || st.Assignments != 3 {
		t.Fatalf("after the wake: %d parked, %d polls, %d leases; want %d, %d, 3",
			st.ParkedPolls, st.WorkPolls, st.Assignments, len(fleet)-3, len(fleet))
	}
}

// TestWakeOnRequeueAfterBackoff: a failed job is pending again only when
// its backoff ends, and the parked poll is answered then — by the wake
// timer, not by the next poll or janitor tick, which are half a lease
// TTL and a quarter of one away.
func TestWakeOnRequeueAfterBackoff(t *testing.T) {
	// A 4 s TTL: the second attempt's backoff is jittered into
	// [40, 80) ms, the park bound is 2 s and the janitor period 1 s.
	co := newCoordinator(t, func(c *Config) { c.LeaseTTL = 4 * time.Second })
	runInBackground(t, co, singleJobSpec(), CampaignTag{})
	now := time.Now()
	a, b := testConn("a", "a"), testConn("b", "b")
	jb := mustAssign(t, co, a, now)
	mustPark(t, co, b, now)
	if resp, _ := co.dispatch(a, &request{Type: msgFail, JobID: jb.ID, Attempt: jb.Attempt, Err: "flaky"}, now); resp.Type != msgOK {
		t.Fatalf("fail answered %+v", resp)
	}
	select {
	case resp := <-b.wake:
		t.Fatalf("parked poll answered %+v while the job is still backing off", resp)
	case <-time.After(20 * time.Millisecond): // the backoff is jittered into [40, 80) ms
	}
	if resp := woken(t, b, 5*time.Second); resp.Type != msgAssign || resp.Job.ID != jb.ID || resp.Job.Attempt != 2 {
		t.Fatalf("parked poll answered %+v, want attempt 2 of %s", resp, jb.ID)
	}
	if waited := time.Since(now); waited > 500*time.Millisecond {
		t.Fatalf("requeued job reached the parked poll after %v; the backoff was under 80 ms", waited)
	}
}

// TestWakeOnStragglerFlag: idle workers are the hedge pool. The janitor
// pass that flags a crawling lease hands the hedge to a poll parked on
// another site in that same pass; a poll parked on the straggler's own
// site is passed over and stays parked.
func TestWakeOnStragglerFlag(t *testing.T) {
	co := newCoordinator(t, func(c *Config) {
		c.LeaseTTL = time.Minute
		c.HedgeFraction, c.HedgeAfter = 0.3, time.Second
	})
	runInBackground(t, co, singleJobSpec(), CampaignTag{})
	now := time.Now()
	slow, other := testConn("slow-0", "tarpit"), testConn("quick-0", "quick")
	jb := mustAssign(t, co, slow, now)
	seedCrawl(t, co, jb.ID, "quick")
	mustPark(t, co, other, now)
	same := testConn("slow-1", "tarpit")
	mustPark(t, co, same, now) // parked last, so the wake pass tries it first
	co.tick(now.Add(500 * time.Millisecond))
	if st := co.Stats(); st.StragglersDetected != 0 || st.ParkedPolls != 2 {
		t.Fatalf("before HedgeAfter: %d stragglers, %d parked", st.StragglersDetected, st.ParkedPolls)
	}
	co.tick(now.Add(1500 * time.Millisecond))
	resp := woken(t, other, 0)
	if resp.Type != msgAssign || resp.Job.ID != jb.ID || resp.Job.Attempt != 2 {
		t.Fatalf("parked poll on the healthy site answered %+v, want the hedge of %s", resp, jb.ID)
	}
	if st := co.Stats(); st.SpeculationsLaunched != 1 || st.ParkedPolls != 1 {
		t.Fatalf("after the flag: %d hedges, %d parked; want 1 and the same-site poll still parked", st.SpeculationsLaunched, st.ParkedPolls)
	}
}

// TestWakeOnQuotaSlotFreed: a Scheduler holding a campaign back at its
// running-jobs limit parks the poll that could have run its next job;
// the result that brings the tenant under the limit answers it.
func TestWakeOnQuotaSlotFreed(t *testing.T) {
	co := newCoordinator(t, nil)
	co.SetScheduler(SchedulerFunc(func(_ time.Time, camps []CampaignView) []int {
		var out []int
		for i, v := range camps {
			if v.Leased < 1 { // MaxRunning 1
				out = append(out, i)
			}
		}
		return out
	}))
	spec := singleJobSpec()
	spec.Replicas = 2
	done := runInBackground(t, co, spec, CampaignTag{})
	now := time.Now()
	a, b := testConn("a", "a"), testConn("b", "b")
	first := mustAssign(t, co, a, now)
	mustPark(t, co, b, now) // a second job is pending, but the tenant is at its limit
	if resp, _ := co.dispatch(a, &request{Type: msgResult, JobID: first.ID, Attempt: first.Attempt, Log: &trace.WorkLog{}}, now); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("result answered %+v", resp)
	}
	second := woken(t, b, 0)
	if second.Type != msgAssign || second.Job.ID == first.ID {
		t.Fatalf("parked poll answered %+v, want the campaign's other job", second)
	}
	if resp, _ := co.dispatch(b, &request{Type: msgResult, JobID: second.Job.ID, Attempt: second.Job.Attempt, Log: &trace.WorkLog{}}, now); resp.Type != msgOK || resp.Err != "" {
		t.Fatalf("result answered %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCloseAnswersParkedPolls: Close tells every parked poll drained at
// once, the connections hang up, and the grace period Close grants
// connected workers ends in milliseconds instead of running its 2 s out
// waiting for workers who would not have polled again until then.
func TestCloseAnswersParkedPolls(t *testing.T) {
	co := newCoordinator(t, func(c *Config) { c.LeaseTTL = time.Minute })
	addr := co.Listener.Addr().String()
	idle := make([]*testClient, 8)
	for i := range idle {
		idle[i] = dialTestClient(t, addr, "idle")
		if err := idle[i].Encode(&request{Type: msgNext}); err != nil {
			t.Fatal(err)
		}
	}
	waitParked(t, co, len(idle))
	start := time.Now()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("Close took %v with %d polls parked", took, len(idle))
	}
	for i, c := range idle {
		var resp response
		if err := c.Decode(&resp); err != nil || resp.Type != msgDrained {
			t.Fatalf("parked poll %d answered %+v (%v), want drained", i, resp, err)
		}
	}
}

// TestParkBoundedByIOTimeout: the park never outlasts the read watchdog
// of the worker waiting on it. With a 200 ms I/O timeout and reconnects
// off — the first timed-out read would end the session — a worker idles
// through many bounds, re-polling at each, and is still there.
func TestParkBoundedByIOTimeout(t *testing.T) {
	const ioTimeout = 200 * time.Millisecond
	co := newCoordinator(t, func(c *Config) { c.IOTimeout = ioTimeout })
	w := NewTestWorker(t, "patient", "", co.Listener.Addr().String(), testBuild, func(c *Config) {
		c.BeatInterval = 20 * time.Millisecond
		c.IOTimeout = ioTimeout
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exited := make(chan error, 1)
	go func() { exited <- w.Run(ctx) }()
	select {
	case err := <-exited:
		t.Fatalf("idle worker gave up: %v", err)
	case <-time.After(5 * ioTimeout):
	}
	// One poll per bound (100 ms), give or take scheduling: not one per
	// millisecond, and not a single one parked past the watchdog.
	if polls := co.Stats().WorkPolls; polls < 5 || polls > 40 {
		t.Fatalf("%d work polls in %v of idling with a %v park bound", polls, 5*ioTimeout, co.parkBound())
	}
	if _, err := co.Run(singleJobSpec()); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-exited; err != nil {
		t.Fatalf("worker did not exit cleanly: %v", err)
	}
	if st := w.WorkerStats(); st.Reconnects != 0 || st.JobsDone != 1 {
		t.Fatalf("worker stats %+v, want one job and no reconnect", st)
	}
}

// failingClose is a filesystem whose files refuse to close cleanly once
// armed: the last thing a journal does.
type failingClose struct {
	faultfs.FS
	armed *atomic.Bool
}

func (f failingClose) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return failingCloseFile{file, f.armed}, nil
}

type failingCloseFile struct {
	faultfs.File
	armed *atomic.Bool
}

func (f failingCloseFile) Close() error {
	err := f.File.Close()
	if f.armed.Load() {
		return faultfs.EIO
	}
	return err
}

// TestCloseReturnsJournalError: a clean Close ends the serve loop with
// the server-closed sentinel, and that used to be the only case in which
// the journal's close error was looked at — after it had been thrown
// away. The journal failing to close is Close's error.
func TestCloseReturnsJournalError(t *testing.T) {
	var armed atomic.Bool
	co := newCoordinator(t, func(c *Config) {
		c.StateDir = t.TempDir()
		c.FS = failingClose{faultfs.NewInjector(nil), &armed}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, co, "w", nil)
	if _, err := co.Run(singleJobSpec()); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if err := co.Close(); !errors.Is(err, faultfs.EIO) {
		t.Fatalf("Close = %v, want the journal's close error", err)
	}
}
