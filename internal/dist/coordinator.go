package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spice/internal/campaign"
	"spice/internal/netutil"
	"spice/internal/obs"
	"spice/internal/smd"
	"spice/internal/trace"
	"spice/internal/wire"
)

// Coordinator shards campaigns across TCP workers. It implements
// campaign.Runner: each Run call shards one campaign.Spec into its
// deterministic task list, leases tasks to whichever workers are
// connected, and merges the work logs in task order — bit-identical to
// campaign.LocalRunner output because tasks, seeds and the per-pull
// dynamics are identical; only the placement differs.
//
// NewCoordinator is the only constructor: the zero value has no Config
// and no tables. A constructed coordinator is a serving coordinator
// (NewCoordinator opens the journal and starts the accept loop) and
// keeps serving between campaigns (idle workers' polls are parked until
// there is work), so a pipeline like core.RunSweep can issue several
// campaigns over one worker fleet. Close tells workers to drain and
// shuts the server down.
//
// Beyond hard worker death (leases + heartbeats), the coordinator
// defends against the paper's §V degraded-but-alive pathologies:
// per-site circuit breakers quarantine sites that keep failing or
// blackholing (site.go), straggler detection hedges crawling jobs with
// a speculative second lease on another site — safe because pulls are
// bit-exact deterministic, so the losing attempt's bytes are identical
// and simply dropped — and every connection carries per-I/O deadlines
// so a half-open TCP peer can never wedge a reader forever.
type Coordinator struct {
	// Listener is where workers connect.
	Listener net.Listener
	// system is the opaque payload (typically a JSON core.SystemConfig)
	// every grant forwards verbatim: dist never interprets it, which keeps
	// the package free of the model layers above md/smd/campaign.
	system json.RawMessage
	// cfg is the validated Config this coordinator was built with — the
	// only copy of every knob; HedgeAfter carries its resolved value.
	cfg Config
	// sched orders the active campaigns each time a worker asks for work
	// — the multi-tenant priority/fair-share/quota hook, installed by
	// SetScheduler. Nil offers campaigns in install order.
	sched Scheduler

	mu      sync.Mutex
	journal *journal
	replay  *journalReplay // what the journal held at construction; empty without one
	leases  *leaseTable    // campaigns → jobs → leases (leases.go)
	sites   siteTable      // per-site breakers and rates (site.go)

	// The journal's log owns the degraded storage state (set when an
	// append or spool write fails past its retries, cleared by the next
	// durable write that succeeds); the coordinator owns the policy.
	// While degraded, scheduling continues in memory (leases drain,
	// results that fsync are still accepted) but non-critical records
	// are not written and results that cannot fsync are answered with
	// msgRetry instead of an ack, so nothing is ever acknowledged without
	// its durability. lastProbe paces the janitor's recovery probe.
	lastProbe time.Time

	// parked holds the work polls that found nothing runnable, oldest
	// first: each stays unanswered on its connection until a wake pass
	// (wakeLocked) finds it a reply or its park bound runs out. wakeTimer
	// runs the wake pass a backing-off job needs when its backoff ends;
	// wakeAt is when it is next due (zero: not armed).
	parked    []*connState
	wakeTimer *time.Timer
	wakeAt    time.Time
	// firstLeaseWait observes campaign install → first grant, pollPark how
	// long each parked poll was held.
	firstLeaseWait, pollPark *obs.Histogram

	campSeq     int
	closed      bool
	stats       Stats
	cancelServe context.CancelFunc
	serveDone   chan error
	closeOnce   sync.Once
	closeErr    error

	// Bytes received from and sent to workers, over every connection.
	bytesIn, bytesOut atomic.Int64

	// Overload-protection state, kept in atomics so the shed path never
	// contends on mu — that contention is the very overload it exists to
	// relieve.
	conns    atomic.Int64 // live worker connections
	inflight atomic.Int64 // requests in processing (a parked poll is not)
	shed     atomic.Int64 // msgNext polls answered without the scheduler

	// Wire-protocol accounting, atomic because the hello is served on
	// the accept path before any lock and the bench polls them hot.
	wireV1 atomic.Int64 // connections granted v1: every accepted one
	polls  atomic.Int64 // msgNext requests received
}

// campaignRun is the job table of one active campaign.
type campaignRun struct {
	key       string // stable identity: campaignKeyTagged(tag, specJSON)
	tag       CampaignTag
	seq       int       // install order this process
	submitted time.Time // install time this process
	spec      campaign.Spec
	specJSON  json.RawMessage
	jobs      []*job
	remaining int
	granted   bool // a job of it has been leased by this process
	failErr   error
	done      chan struct{}
	doneOnce  sync.Once
}

func (cr *campaignRun) finish(err error) {
	if err != nil && cr.failErr == nil {
		cr.failErr = err
	}
	cr.doneOnce.Do(func() { close(cr.done) })
}

func (co *Coordinator) hedgingEnabled() bool {
	return co.cfg.HedgeFraction > 0
}

// replayJournal opens the journal under Config.StateDir and loads what it
// replays; the campaigns themselves re-attach when Install is called
// with a matching (tag, spec).
func (co *Coordinator) replayJournal() error {
	jcfg := journalConfig(co.cfg.FS, co.cfg.StateDir)
	jcfg.CompactBytes = co.cfg.CompactBytes
	jcfg.Retries = co.cfg.StorageRetries
	jcfg.Notify = func(degraded bool, fields map[string]any) {
		name := "storage_recovered"
		if degraded {
			name = "storage_degraded"
		}
		co.cfg.Events.Emit(obs.Event{Name: name, Fields: fields})
	}
	jn, rep, tail, err := openJournal(jcfg)
	if err != nil {
		return err
	}
	co.journal = jn
	co.replay = rep
	// Seed the completed-jobs set from the whole journal so a result
	// retransmitted for a job finished before the crash is recognized
	// as a duplicate even if its campaign has not been re-Run yet.
	for _, c := range rep.campaigns {
		for id := range c.done {
			co.leases.doneJobs[id] = true
		}
	}
	co.stats.ReplayedRecords = rep.records
	co.stats.TruncatedTailBytes = tail.TornBytes
	if tail.TornErr != nil {
		co.stats.TornTail = TailTorn
		if errors.Is(tail.TornErr, trace.ErrFormat) {
			co.stats.TornTail = TailCorrupt
		}
		co.stats.TornTailMsg = tail.TornErr.Error()
	}
	if rep.records > 0 {
		co.stats.Restarts++
		co.cfg.Events.Emit(obs.Event{Name: "journal_replayed", Fields: map[string]any{
			"records":    rep.records,
			"torn_bytes": tail.TornBytes,
			"tail":       co.stats.TornTail.String(),
		}})
	}
	return nil
}

// start spins up the accept loop and the lease janitor; Close stops
// both and waits for the accept loop.
func (co *Coordinator) start() {
	ctx, cancel := context.WithCancel(context.Background())
	co.cancelServe = cancel
	co.serveDone = make(chan error, 1)
	go co.janitor(ctx)
	go func() {
		err := netutil.Serve(ctx, co.Listener, co.serveConn)
		// The server is gone; whatever campaigns are in flight cannot
		// finish. A clean Close shows up as ErrServerClosed.
		co.mu.Lock()
		co.closed = true
		for _, camp := range co.leases.camps {
			camp.finish(fmt.Errorf("dist: serve: %w", err))
		}
		co.mu.Unlock()
		co.serveDone <- err
	}()
}

// Run implements campaign.Runner. It installs spec as an active
// campaign under the zero tag, waits for every task to complete, and
// returns the merged logs. The server keeps running for the next Run.
func (co *Coordinator) Run(spec campaign.Spec) (map[campaign.Combo][]*trace.WorkLog, error) {
	return co.RunTagged(spec, CampaignTag{})
}

// RunTagged installs spec under tag and waits for it: Install, then
// Installed.Wait.
func (co *Coordinator) RunTagged(spec campaign.Spec, tag CampaignTag) (map[campaign.Combo][]*trace.WorkLog, error) {
	in, err := co.Install(spec, tag, time.Time{})
	if err != nil {
		return nil, err
	}
	return in.Wait()
}

// Installed is a campaign Install put on the lease path.
type Installed struct {
	co    *Coordinator
	camp  *campaignRun // nil for a spec without tasks
	tasks []campaign.Task
}

// jobID names task t of the campaign with the given key. The key scopes
// the ID: concurrent campaigns over overlapping combos stay distinct in
// every per-job table, the journal, and the spool filenames.
func jobID(key string, t campaign.Task) string {
	return fmt.Sprintf("%s.smdje-%s-r%d", key, t.Combo, t.Index)
}

// Install makes spec an active campaign carrying tag — the
// tenant/priority identity the Scheduler and the control plane's quota
// policy read — once its campaign record, stamped with the submission
// time at (zero: none), is fsynced; a record that cannot be made durable
// installs nothing and returns the storage error. Any number of
// campaigns may be active over one fleet: job IDs are scoped by the
// campaign key, so they never collide in the journal, the spool or the
// idempotency tables, and each merges byte-identical to a solo run.
func (co *Coordinator) Install(spec campaign.Spec, tag CampaignTag, at time.Time) (*Installed, error) {
	tasks := spec.Tasks()
	if len(tasks) == 0 {
		return &Installed{co: co}, nil
	}
	// The (tag, spec JSON) pair keys journal replay, so a restarted
	// coordinator re-running the same submissions (possibly in a
	// different order) matches each install to its recovered state.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding spec: %w", err)
	}
	key := campaignKeyTagged(tag, specJSON)

	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	if co.closed {
		return nil, errors.New("dist: coordinator is closed")
	}
	for _, c := range co.leases.camps {
		if c.key == key {
			return nil, fmt.Errorf("dist: campaign %s is already running", key)
		}
	}
	// Record first: every later record of the campaign then has its
	// campaign record ahead of it in the log.
	if !co.journalLocked(&jrec{T: jCampaign, Camp: key, Spec: specJSON, Tag: &tag, At: at}, true) {
		return nil, fmt.Errorf("dist: journaling campaign %s: %s", key, co.journal.log.Health().LastError)
	}
	camp := &campaignRun{
		key:       key,
		tag:       tag,
		seq:       co.campSeq,
		submitted: now,
		spec:      spec,
		specJSON:  specJSON,
		jobs:      make([]*job, len(tasks)),
		remaining: len(tasks),
		done:      make(chan struct{}),
	}
	co.campSeq++
	// Replayed state is consumed once; if the same submission runs again
	// in this process it starts fresh (and journals fresh records).
	rc := co.replay.campaigns[key]
	if rc == nil || rc.applied {
		rc = nil
	} else {
		rc.applied = true
	}
	for i, t := range tasks {
		j := &job{id: jobID(key, t), camp: camp, task: t}
		camp.jobs[i] = j
		if rc == nil {
			continue
		}
		if wl, ok := rc.done[j.id]; ok {
			j.state = stateDone
			j.log = wl
			camp.remaining--
			co.journal.removeSpool(j.id)
			continue
		}
		if a := rc.attempts[j.id]; a > j.attempts {
			j.attempts = a
		}
		if ck := co.journal.loadSpool(j.id); ck != nil {
			if steps, err := ckptSteps(ck); err == nil {
				j.ckpt, j.ckptSteps = ck, steps
			}
		}
	}
	co.leases.add(camp)
	co.stats.Jobs += len(tasks)
	co.cfg.Events.Emit(obs.Event{Name: "campaign_start", Campaign: key, Fields: map[string]any{
		"jobs": len(tasks), "recovered_done": len(tasks) - camp.remaining,
		"tenant": tag.Tenant, "priority": tag.Priority,
	}})
	if camp.remaining == 0 {
		// Every job was recovered done — nothing left to schedule.
		camp.finish(nil)
	}
	co.wakeLocked(now)
	return &Installed{co: co, camp: camp, tasks: tasks}, nil
}

// Wait blocks until the campaign ends and returns its merged logs, or
// the error that ended it: ErrCampaignCanceled, a job out of attempts,
// or the coordinator's shutdown.
func (in *Installed) Wait() (map[campaign.Combo][]*trace.WorkLog, error) {
	if in.camp == nil {
		return map[campaign.Combo][]*trace.WorkLog{}, nil
	}
	<-in.camp.done
	co := in.co
	co.mu.Lock()
	co.leases.remove(in.camp)
	err := in.camp.failErr
	done := obs.Event{Name: "campaign_done", Campaign: in.camp.key}
	if err != nil {
		done.Fields = map[string]any{"error": err.Error()}
	}
	co.cfg.Events.Emit(done)
	co.mu.Unlock()
	if err != nil {
		return nil, err
	}
	logs := make([]*trace.WorkLog, len(in.camp.jobs))
	for i, j := range in.camp.jobs {
		logs[i] = j.log
	}
	return campaign.Collate(in.tasks, logs), nil
}

// ErrCampaignCanceled is the failure error of a campaign killed by
// CancelCampaign; its Wait returns it.
var ErrCampaignCanceled = errors.New("dist: campaign canceled")

// CancelCampaign fsyncs a cancel record for the campaign with the given
// key (see SpecKey), active or not, then ends it if it is active: its
// Wait returns ErrCampaignCanceled and in-flight leases are abandoned on
// their next heartbeat. An active campaign already ended or with every
// job done is left alone. It reports whether an active campaign was
// canceled, or the storage error that left the record undurable.
func (co *Coordinator) CancelCampaign(key string) (bool, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	var camp *campaignRun
	for _, c := range co.leases.camps {
		if c.key == key {
			if c.failErr != nil || c.remaining == 0 {
				return false, nil
			}
			camp = c
		}
	}
	if !co.journalLocked(&jrec{T: jCancel, Camp: key}, true) {
		return false, fmt.Errorf("dist: journaling cancel of %s: %s", key, co.journal.log.Health().LastError)
	}
	if camp == nil {
		return false, nil
	}
	camp.finish(ErrCampaignCanceled)
	co.cfg.Events.Emit(obs.Event{Name: "campaign_canceled", Campaign: key})
	return true, nil
}

// Campaigns returns the scheduling view of every active campaign, in
// install order — the same views the Scheduler is offered.
func (co *Coordinator) Campaigns() []CampaignView {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.leases.views()
}

// Campaign returns the scheduling view of the active campaign with the
// given key, counting that campaign's jobs alone; false if no active
// campaign has it.
func (co *Coordinator) Campaign(key string) (CampaignView, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, c := range co.leases.camps {
		if c.key == key {
			return c.view(), true
		}
	}
	return CampaignView{}, false
}

// SetScheduler installs the campaign-ordering policy, the only way to
// set one: the control plane's quota policy needs the coordinator it
// schedules for, so it is installed after construction rather than
// carried in on the Config. Nil restores install order.
func (co *Coordinator) SetScheduler(s Scheduler) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sched = s
}

// offerOrderLocked resolves the Scheduler's decision into the list of
// campaigns to scan for work, in offer order. Campaigns the policy
// omits (quota-blocked tenants and everything ranked behind them) are
// not scanned this round. Caller holds mu.
func (co *Coordinator) offerOrderLocked(now time.Time) []*campaignRun {
	if co.sched == nil {
		return co.leases.camps
	}
	views := co.leases.views()
	order := co.sched.Offer(now, views)
	out := make([]*campaignRun, 0, len(order))
	seen := make(map[int]bool, len(order))
	for _, i := range order {
		if i < 0 || i >= len(co.leases.camps) || seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, co.leases.camps[i])
	}
	return out
}

// Close drains connected workers (every parked poll, and anyone's next
// request, is answered with drained), then shuts the server down and
// waits for it. Safe to call more than once.
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() { co.closeErr = co.doClose() })
	return co.closeErr
}

func (co *Coordinator) doClose() error {
	co.mu.Lock()
	co.closed = true
	co.wakeLocked(time.Now())
	if co.wakeTimer != nil {
		co.wakeTimer.Stop()
	}
	co.mu.Unlock()
	// Grace period: let connected workers observe drained and hang up
	// on their own before the listener shutdown cuts them off.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if co.conns.Load() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	co.cancelServe()
	err := <-co.serveDone
	// Take the journal out of service, keeping its final storage health.
	co.mu.Lock()
	jn := co.journal
	if jn != nil {
		co.stats.setStorage(jn.log.Health())
		co.journal = nil
	}
	co.mu.Unlock()
	jerr := jn.close()
	if errors.Is(err, netutil.ErrServerClosed) {
		// The clean shutdown this very call asked for: the journal's last
		// flush is the only thing left that can have gone wrong.
		return jerr
	}
	return err
}

// breakerCooldown is the quarantine before an open site is re-probed
// with one half-open probe job.
func (co *Coordinator) breakerCooldown() time.Duration { return 2 * co.cfg.LeaseTTL }

// janitorPeriod tracks the finer of the lease TTL and the hedge window
// so both state machines advance promptly.
func (co *Coordinator) janitorPeriod() time.Duration {
	period := co.cfg.LeaseTTL / 4
	if co.hedgingEnabled() {
		if p := co.cfg.HedgeAfter / 2; p < period {
			period = p
		}
	}
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	return period
}

// janitor periodically revokes leases that missed their heartbeat TTL
// and scans for straggling leases to hedge.
func (co *Coordinator) janitor(ctx context.Context) {
	tick := time.NewTicker(co.janitorPeriod())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			co.tick(now)
		}
	}
}

// tick is one janitor pass at time now. It ends with a wake pass: an
// expired lease is a job to run again, and a flagged straggler is a
// hedge for the idle workers — the parked polls are the hedge pool.
func (co *Coordinator) tick(now time.Time) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, camp := range co.leases.camps {
		if camp.failErr != nil {
			continue
		}
		for _, rv := range co.leases.expire(camp, now, co.cfg.LeaseTTL) {
			for _, l := range rv.leases {
				co.stats.LeaseExpiries++
				co.cfg.Events.Emit(obs.Event{Name: "lease_expired", Job: rv.job.id,
					Attempt: l.attempt, Site: l.site, Worker: l.worker})
				sh := co.sites.get(l.site)
				sh.LeaseExpiries++
				co.strikeLocked(sh, rv.job.id, now)
			}
			co.requeuedLocked(rv)
		}
		co.stragglerScanLocked(camp, now)
	}
	co.wakeLocked(now)
	co.storageProbeLocked(now)
}

// storageProbeLocked checks whether a degraded disk has come back by
// appending (and fsyncing) a no-op record every LeaseTTL/2. Success
// flips the log back to healthy; failure leaves it degraded until the
// next probe window. Caller holds mu.
func (co *Coordinator) storageProbeLocked(now time.Time) {
	if co.journal == nil || !co.journal.log.Health().Degraded {
		return
	}
	if now.Sub(co.lastProbe) < co.cfg.LeaseTTL/2 {
		return
	}
	co.lastProbe = now
	// The outcome is recorded in the log's health either way.
	_ = co.journal.log.Append(&jrec{T: jNoop}, true)
}

// strikeLocked records one failure signal against a site's breaker;
// the caller has bumped the per-category counter. Caller holds mu.
func (co *Coordinator) strikeLocked(sh *siteHealth, jobID string, now time.Time) {
	sh.clearProbe(jobID)
	if sh.strike(now) {
		co.stats.BreakerTrips++
		co.cfg.Events.Emit(obs.Event{Name: "breaker_open", Job: jobID, Site: sh.Site,
			Fields: map[string]any{"strikes": sh.Strikes}})
	}
}

// stragglerScanLocked flags the jobs of camp whose sole lease crawls
// (straggling, site.go). Flagged jobs become hedge candidates: assign
// grants them a speculative second lease on a different site. Caller
// holds mu.
func (co *Coordinator) stragglerScanLocked(camp *campaignRun, now time.Time) {
	if !co.hedgingEnabled() {
		return
	}
	median, haveMedian := co.sites.medianRate()
	co.leases.flagStragglers(camp, func(j *job, l *lease) bool {
		if !straggling(&co.cfg, l, now, median, haveMedian) {
			return false
		}
		co.stats.StragglersDetected++
		co.cfg.Events.Emit(obs.Event{Name: "straggler_flagged", Job: j.id,
			Attempt: l.attempt, Site: l.site, Worker: l.worker,
			Fields: map[string]any{"rate": l.rate.v}})
		return true
	})
}

// journalLocked appends one record (fsyncing if sync) and reports
// success. A failed append — after the journal's own retries — moves
// the coordinator into the degraded storage state instead of killing
// the campaign: scheduling continues in memory, and the callers of the
// records whose durability is load-bearing (the fsynced ones) check the
// return value and refuse to acknowledge. While degraded, non-critical
// records are skipped outright (the disk is known sick; hammering it
// from under the mutex helps nobody) until a successful durable write
// clears the state. Caller holds mu.
func (co *Coordinator) journalLocked(r *jrec, sync bool) bool {
	if co.journal == nil {
		return true
	}
	if co.journal.log.Health().Degraded && !sync {
		return false
	}
	return co.journal.log.Append(r, sync) == nil
}

// requeuedLocked announces a job that lost its last lease and is
// pending again, and journals the failure of the campaign of one that
// ran out of attempts. Caller holds mu.
func (co *Coordinator) requeuedLocked(rv revocation) {
	if rv.exhausted != nil {
		co.journalLocked(&jrec{T: jFail, Camp: rv.job.camp.key, Err: rv.exhausted.Error()}, true)
	}
	if rv.requeued {
		co.cfg.Events.Emit(obs.Event{Name: "job_requeued", Job: rv.job.id, Attempt: rv.job.attempts,
			Fields: map[string]any{"not_before": rv.job.notBefore.UTC().Format(time.RFC3339Nano)}})
	}
}

// dropConn revokes every lease held by a dying connection so its jobs
// requeue immediately instead of waiting out the TTL.
func (co *Coordinator) dropConn(cs *connState) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.conns.Add(-1)
	now := time.Now()
	for _, rv := range co.leases.drop(cs, now) {
		for _, l := range rv.leases {
			co.stats.Disconnects++
			co.cfg.Events.Emit(obs.Event{Name: "worker_disconnected", Job: rv.job.id,
				Attempt: l.attempt, Site: l.site, Worker: l.worker})
			sh := co.sites.get(l.site)
			sh.Disconnects++
			co.strikeLocked(sh, rv.job.id, now)
		}
		co.requeuedLocked(rv)
	}
	co.wakeLocked(now)
}

// grantLocked leases j to cs and builds the assign reply. speculative
// marks a hedge — a second concurrent lease racing a straggler on
// another site. Caller holds mu.
func (co *Coordinator) grantLocked(j *job, cs *connState, now time.Time, speculative bool) response {
	camp := j.camp
	l := co.leases.grant(j, cs, now, j.attempts+1, speculative)
	if !camp.granted {
		camp.granted = true
		co.firstLeaseWait.Observe(now.Sub(camp.submitted).Seconds())
	}
	if co.sites.get(cs.sess.Site).granted(j.id) {
		co.stats.BreakerProbes++
		co.cfg.Events.Emit(obs.Event{Name: "breaker_probe", Job: j.id, Site: cs.sess.Site, Worker: cs.sess.Name})
	}
	co.stats.Assignments++
	if speculative {
		co.stats.SpeculationsLaunched++
	} else if l.attempt > 1 {
		co.stats.Retries++
	}
	resp := response{Type: msgAssign, Spec: &camp.spec, Job: &wireJob{
		ID:      j.id,
		Combo:   j.task.Combo,
		Seed:    j.task.Seed,
		Index:   j.task.Index,
		Attempt: l.attempt,
	}}
	resumed := len(j.ckpt) > 0
	if resumed {
		// Always a complete image — deltas are folded on receipt, and the
		// new lease holder has no base yet.
		resp.Resume = cs.sess.Pack(nil, j.ckpt)
		co.stats.Resumes++
	}
	co.cfg.Events.Emit(obs.Event{Name: "lease_granted", Job: j.id, Attempt: l.attempt,
		Site: cs.sess.Site, Worker: cs.sess.Name,
		Fields: map[string]any{"hedge": speculative, "resumed": resumed}})
	co.journalLocked(&jrec{
		T: jLease, Camp: camp.key, Job: j.id, Worker: cs.sess.Name, Site: cs.sess.Site,
		Attempt: l.attempt, Resumed: resumed, Hedge: speculative,
	}, false)
	return resp
}

// assign answers a work poll: a lease on the first runnable job, or —
// with nothing runnable for an admissible site — no answer yet. The poll
// is parked, and whatever makes work possible answers it (wakeLocked).
func (co *Coordinator) assign(cs *connState, now time.Time) (resp response, answered bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	resp, answered, _ = co.assignLocked(cs, now)
	if !answered {
		cs.parkedAt = now
		co.parked = append(co.parked, cs)
	}
	return resp, answered
}

// assignLocked is one scheduling decision for a poll from cs. The
// Scheduler picks the campaign order (priority, fair share, quotas);
// within it the lease table picks the job: pending ones first, then a
// speculative hedge on a flagged straggler. With nothing to hand out
// answered is false — after arming the wake timer for the soonest
// backoff expiry, if a job is backing off — and elsewhere is pick's: a
// poll from another site would have been answered. Caller holds mu.
func (co *Coordinator) assignLocked(cs *connState, now time.Time) (resp response, answered, elsewhere bool) {
	if co.closed {
		return response{Type: msgDrained}, true, false
	}
	if !co.sites.get(cs.sess.Site).admissible(now, co.breakerCooldown()) {
		// Quarantined site (or a probe already in flight): no work until
		// the breaker relents. The paper's §V.C.4 outage as a scheduling
		// decision rather than an operator post-mortem. A hint, not a park:
		// nothing that wakes parked polls can change the verdict, only the
		// cooldown can, and the jitter keeps the site's workers from
		// re-polling in lockstep.
		return co.waitHint(cs, co.cfg.LeaseTTL/2), true, false
	}
	j, speculative, soonest, elsewhere := co.leases.pick(co.offerOrderLocked(now), cs.sess.Site, now, co.hedgingEnabled())
	if j != nil {
		return co.grantLocked(j, cs, now, speculative), true, false
	}
	if soonest > 0 {
		co.armWakeLocked(soonest)
	}
	return response{}, false, elsewhere
}

// wakeLocked re-runs assign for the parked polls and hands each one that
// now has an answer its reply. Everything that can create work ends with
// it: a campaign installed, a job requeued (through the wake timer, when
// its backoff ends), a straggler flagged, a result accepted (a quota
// slot freed), Close (every poll answered drained). Newest first — the
// poll parked last is the one most surely still alive, and a grant to a
// dead connection costs the job an attempt — and only as far as there
// are answers: the pass stops at the first poll that finds nothing,
// unless what it found nothing of was site-bound. Caller holds mu.
func (co *Coordinator) wakeLocked(now time.Time) {
	var dry string // the site whose last poll found only site-bound nothing
	for i := len(co.parked) - 1; i >= 0; i-- {
		cs := co.parked[i]
		if dry != "" && cs.sess.Site == dry {
			continue
		}
		resp, answered, elsewhere := co.assignLocked(cs, now)
		if !answered {
			if !elsewhere {
				return
			}
			dry = cs.sess.Site
			continue
		}
		co.endParkLocked(i, now)
		cs.wake <- resp // never blocks: one park, one reply
	}
}

// unparkLocked withdraws cs's parked poll — its bound ran out — and
// reports whether it was still parked. Caller holds mu.
func (co *Coordinator) unparkLocked(cs *connState, now time.Time) bool {
	for i, p := range co.parked {
		if p == cs {
			co.endParkLocked(i, now)
			return true
		}
	}
	return false
}

// endParkLocked takes parked[i] off the list and books how long it was
// held. Caller holds mu.
func (co *Coordinator) endParkLocked(i int, now time.Time) {
	co.pollPark.Observe(now.Sub(co.parked[i].parkedAt).Seconds())
	co.parked = append(co.parked[:i], co.parked[i+1:]...)
}

// armWakeLocked schedules a wake pass d from now, unless one is already
// due sooner. One timer serves every backing-off job: the pass it runs
// re-arms it for whichever backoff ends next. Caller holds mu.
func (co *Coordinator) armWakeLocked(d time.Duration) {
	at := time.Now().Add(d)
	if !co.wakeAt.IsZero() && !at.Before(co.wakeAt) {
		return
	}
	co.wakeAt = at
	if co.wakeTimer != nil {
		co.wakeTimer.Reset(d)
		return
	}
	co.wakeTimer = time.AfterFunc(d, func() {
		co.mu.Lock()
		defer co.mu.Unlock()
		co.wakeAt = time.Time{}
		co.wakeLocked(time.Now())
	})
}

// ckptSteps decodes an opaque checkpoint payload as the
// smd.PullCheckpoint a worker resumes from and returns its step counter.
// A payload no pull could resume from is an error: storing it would hand
// every later resume of the job an image that fails the attempt.
func ckptSteps(ckpt json.RawMessage) (int, error) {
	var ck smd.PullCheckpoint
	if err := json.Unmarshal(ckpt, &ck); err != nil {
		return 0, err
	}
	return ck.Steps, ck.Validate()
}

// heartbeat refreshes a lease and stores any checkpoint that came with
// it. The lease table decides which lease the beat speaks for (the
// connection's own, or an adoption — leaseTable.beat); a worker beating
// for a job leased elsewhere is told to abandon — which is also how the
// losing side of a speculation race learns it lost: the job is done,
// the beat gets abandon, the pull is dropped.
func (co *Coordinator) heartbeat(cs *connState, req *request, now time.Time) response {
	co.mu.Lock()
	defer co.mu.Unlock()
	j := co.leases.jobsByID[req.JobID]
	if j == nil || j.state == stateDone || j.camp.failErr != nil {
		// Unknown, finished, or the campaign is dead (failed or canceled):
		// the worker should drop the pull.
		return response{Type: msgAbandon}
	}
	camp := j.camp
	l, adopted := co.leases.beat(j, cs, req.Attempt, now)
	if l == nil {
		// The beating worker genuinely lost the job.
		return response{Type: msgAbandon}
	}
	if adopted {
		co.sites.get(cs.sess.Site).Assignments++
		co.stats.Adoptions++
		co.cfg.Events.Emit(obs.Event{Name: "lease_adopted", Job: j.id, Attempt: l.attempt,
			Site: cs.sess.Site, Worker: cs.sess.Name})
		co.journalLocked(&jrec{
			T: jLease, Camp: camp.key, Job: j.id, Worker: cs.sess.Name, Site: cs.sess.Site,
			Attempt: l.attempt, Resumed: len(j.ckpt) > 0,
		}, false)
	}
	if req.Type == msgProgress && req.Ckpt != nil {
		// Fold before anything else: every consumer downstream of this
		// point — farthest-wins, the spool, journal replay, a hedge's
		// resume — sees only complete images. A delta that cannot be
		// resolved right here is never stored; the worker is asked for a
		// full image instead, so a crash between receipt and fold can at
		// worst lose one checkpoint generation, never corrupt one.
		raw, err := req.Ckpt.Resolve(l.base)
		var steps int
		if err == nil {
			steps, err = ckptSteps(raw)
		}
		if err != nil {
			// Base mismatch (coordinator restart, lost ack, adoption), a
			// corrupt payload that survived the frame CRC, or bytes that are
			// no resumable checkpoint: either way nothing is stored and the incremental
			// lineage is broken. NeedFull restarts it.
			if errors.Is(err, wire.ErrBaseMismatch) {
				co.stats.DeltaBaseMisses++
			} else {
				co.stats.CheckpointsRejected++
			}
			l.base = nil
			co.cfg.Events.Emit(obs.Event{Name: "checkpoint_need_full", Job: j.id, Attempt: l.attempt,
				Site: l.site, Worker: l.worker, Fields: map[string]any{"error": err.Error()}})
			return response{Type: msgOK, NeedFull: true}
		}
		co.stats.Checkpoints++
		if req.Ckpt.IsDelta() {
			co.stats.DeltasFolded++
		}
		rate, farthest := j.progress(l, now, raw, steps)
		if rate > 0 {
			co.sites.get(l.site).rate.observe(rate)
		}
		co.cfg.Events.Emit(obs.Event{Name: "checkpoint", Job: j.id, Attempt: l.attempt,
			Site: l.site, Worker: l.worker,
			Fields: map[string]any{"steps": steps, "bytes": req.Ckpt.WireLen(), "raw_bytes": len(raw)}})
		if farthest && co.journal != nil && !co.journal.log.Health().Degraded {
			// A checkpoint that cannot reach the spool costs recovery
			// progress, never correctness: the in-memory copy the table
			// keeps goes on serving resumes, so a sick disk degrades the
			// coordinator instead of failing the campaign.
			if err := co.journal.spoolCheckpoint(j.id, raw); err != nil {
				co.journal.log.Fault("checkpoint spool", err)
			} else {
				co.journalLocked(&jrec{T: jCkpt, Camp: camp.key, Job: j.id, Attempt: l.attempt}, false)
			}
		}
	}
	return response{Type: msgOK}
}

// settlingLocked resolves the job a result or fail line names. Without
// one to settle — unknown, completed in an earlier campaign this process
// (or the journal) knows about, or its campaign died (failed or
// canceled) while the pull was in flight — ok is false and resp is the
// whole answer: an ack, so the sender clears its outbox and drops the
// pull; nothing is merged. Caller holds mu.
func (co *Coordinator) settlingLocked(id string) (j *job, resp response, ok bool) {
	switch j = co.leases.jobsByID[id]; {
	case j == nil && co.leases.doneJobs[id]:
		co.stats.DuplicateResultsDropped++
	case j == nil:
		return nil, response{Type: msgOK, Err: "dist: unknown job " + id}, false
	case j.camp.failErr == nil:
		return j, response{}, true
	}
	return nil, response{Type: msgOK}, false
}

// finish records a completed job, if the lease table accepts the
// result (job.claim: first delivery wins, anything later is a duplicate
// to ack and drop).
func (co *Coordinator) finish(cs *connState, req *request, now time.Time) response {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, resp, ok := co.settlingLocked(req.JobID)
	if !ok {
		return resp
	}
	camp := j.camp
	winner, accept := j.claim(cs, req.Attempt)
	if !accept {
		// A retransmit of a result already recorded, or the sender's lease
		// was revoked and the job reassigned (or it lost a speculation
		// race) and the surviving lease will deliver the same bytes: ack
		// so the sender clears its outbox.
		co.stats.DuplicateResultsDropped++
		return response{Type: msgOK}
	}
	if req.Log == nil {
		return response{Type: msgOK, Err: "dist: result without log"}
	}
	// Journal (fsynced — the log is the campaign's irreplaceable output)
	// before the in-memory commit and the ack.
	attempt := j.attempts
	if winner != nil {
		attempt = winner.attempt
	}
	if !co.journalLocked(&jrec{T: jDone, Camp: camp.key, Job: j.id, Attempt: attempt, Log: req.Log}, true) {
		// The result cannot be made durable right now. Acking would break
		// the promise the fsync exists for; failing the campaign would
		// throw away a computed result over a possibly transient disk
		// fault. msgRetry does neither: the worker keeps the line in its
		// outbox and retransmits once the storage probe clears the state.
		return response{Type: msgRetry, DelayMs: int(co.cfg.LeaseTTL / 2 / time.Millisecond)}
	}
	losers := co.leases.settle(j, winner, req.Log)
	sh := co.sites.get(cs.sess.Site)
	sh.Completions++
	if winner != nil {
		sh.latency.observe(now.Sub(winner.granted))
	}
	if sh.success() {
		co.stats.BreakerCloses++
		co.cfg.Events.Emit(obs.Event{Name: "breaker_closed", Job: j.id, Site: cs.sess.Site})
	}
	// The speculation race is settled: every other concurrent lease lost.
	for _, l := range losers {
		co.stats.SpeculationsWasted++
		co.cfg.Events.Emit(obs.Event{Name: "speculation_lost", Job: j.id, Attempt: l.attempt,
			Site: l.site, Worker: l.worker})
		loser := co.sites.get(l.site)
		loser.SpecLost++
		loser.clearProbe(j.id)
		if !l.speculative && l.steps > 0 {
			// The original lease demonstrably crawled and lost to its
			// hedge: that is a health verdict on its site, the same kind
			// of strike a failure would be.
			co.strikeLocked(loser, j.id, now)
		}
	}
	if winner != nil && winner.speculative {
		co.stats.SpeculationsWon++
		sh.SpecWon++
	}
	co.cfg.Events.Emit(obs.Event{Name: "result_accepted", Job: j.id, Attempt: attempt,
		Site: cs.sess.Site, Worker: cs.sess.Name,
		Fields: map[string]any{"remaining": camp.remaining}})
	if co.journal != nil {
		co.journal.removeSpool(j.id)
	}
	// One lease fewer against its tenant's quota: a campaign the Scheduler
	// was holding back may be offerable now.
	co.wakeLocked(now)
	return response{Type: msgOK}
}

// fail requeues a job its worker could not complete. Like finish, it is
// idempotent by (job, attempt): a fail line from a retired lease — the
// job finished elsewhere or was reassigned — is acked and dropped.
func (co *Coordinator) fail(cs *connState, req *request, now time.Time) response {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, resp, ok := co.settlingLocked(req.JobID)
	if !ok {
		return resp
	}
	camp := j.camp
	if l := j.leaseOf(cs, req.Attempt); l != nil {
		co.stats.Failures++
		co.cfg.Events.Emit(obs.Event{Name: "job_failed", Job: j.id, Attempt: l.attempt,
			Site: l.site, Worker: l.worker, Fields: map[string]any{"error": req.Err}})
		co.journalLocked(&jrec{T: jFail, Camp: camp.key, Job: j.id, Attempt: l.attempt, Err: req.Err}, false)
		sh := co.sites.get(l.site)
		sh.Failures++
		co.strikeLocked(sh, j.id, now)
		co.requeuedLocked(co.leases.revoke(j, now, func(o *lease) bool { return o == l }))
		co.wakeLocked(now)
	} else if j.state != statePending {
		co.stats.DuplicateResultsDropped++
	}
	return response{Type: msgOK}
}

// Stats returns the campaign counters. Counters aggregate over every
// campaign the coordinator has run.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.statsLocked()
}

func (co *Coordinator) statsLocked() Stats {
	s := co.stats
	s.BytesIn, s.BytesOut = co.bytesIn.Load(), co.bytesOut.Load()
	if co.journal != nil {
		s.setStorage(co.journal.log.Health())
	}
	s.RequestsShed = int(co.shed.Load())
	s.InflightRequests = int(co.inflight.Load())
	s.ConnectedWorkers = int(co.conns.Load())
	s.WireV1Conns = int(co.wireV1.Load())
	s.WorkPolls = co.polls.Load()
	s.ParkedPolls = len(co.parked)
	return s
}

// SiteStats returns the per-site health table keyed by site name.
func (co *Coordinator) SiteStats() map[string]SiteStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.sites.snapshot()
}

// StatsSnapshot returns the campaign counters and the per-site health
// table captured under one lock acquisition, so the two views are
// mutually coherent — the snapshot the statsfmt tables print and the
// obs /metrics collector scrapes.
func (co *Coordinator) StatsSnapshot() Snapshot {
	co.mu.Lock()
	defer co.mu.Unlock()
	return Snapshot{
		Stats: co.statsLocked(),
		Sites: co.sites.snapshot(),
	}
}
