package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spice/internal/backoff"
	"spice/internal/campaign"
	"spice/internal/netutil"
	"spice/internal/obs"
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
// and no tables. The server is long-lived: it starts lazily on the
// first Run and keeps serving between campaigns (workers idle on wait
// replies), so a pipeline like core.RunSweep can issue several
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
	// System is an opaque payload forwarded to workers verbatim in the
	// hello reply — typically a JSON-encoded core.SystemConfig. dist
	// itself never interprets it, which keeps the package free of any
	// dependency on the model layers above md/smd/campaign.
	System json.RawMessage
	// cfg is the validated Config this coordinator was built with — the
	// only copy of every knob; BreakerCooldown and HedgeAfter carry their
	// resolved values.
	cfg Config

	mu       sync.Mutex
	journal  *journal
	replay   *journalReplay
	doneJobs map[string]bool // every job this process has accepted (or replayed) a result for
	sites    map[string]*siteHealth

	// The journal's log owns the degraded storage state (set when an
	// append or spool write fails past its retries, cleared by the next
	// durable write that succeeds); the coordinator owns the policy.
	// While degraded, scheduling continues in memory (leases drain,
	// results that fsync are still accepted) but non-critical records
	// are not journaled and results that cannot fsync are answered with
	// msgRetry instead of an ack, so nothing is ever acknowledged without
	// its durability. lastProbe paces the janitor's recovery probe.
	lastProbe time.Time

	camps       []*campaignRun  // active campaigns, install order
	jobsByID    map[string]*job // every active campaign's jobs, by scoped ID
	campSeq     int
	closed      bool
	started     bool
	stats       Stats
	jobStats    map[string]*JobStats
	bytes       counter
	cancelServe context.CancelFunc
	serveDone   chan error
	closeOnce   sync.Once
	closeErr    error

	// Overload-protection state, kept in atomics so the shed path and
	// the wait-hint scaling never contend on mu — that contention is the
	// very overload they exist to relieve.
	conns     atomic.Int64 // live worker connections
	inflight  atomic.Int64 // requests decoded and not yet answered
	shed      atomic.Int64 // msgNext polls answered without the scheduler
	evictions atomic.Int64 // slow-consumer connections killed
	coalesced atomic.Int64 // heartbeats answered from connection-local state
	queuePeak atomic.Int64 // high-water mark of any send queue

	// Wire-protocol accounting, atomic because negotiation happens on
	// the accept path before any lock and the bench polls them hot.
	wireV0         atomic.Int64 // connections negotiated to JSON-lines
	wireV1         atomic.Int64 // connections negotiated to binary framing
	wireDowngrades atomic.Int64 // hellos offering an unknown (future) version
	polls          atomic.Int64 // msgNext requests received
}

// campaignRun is the job table of one active campaign.
type campaignRun struct {
	key       string // stable identity: campaignKeyTagged(tag, specJSON)
	tag       CampaignTag
	seq       int       // install order this process
	submitted time.Time // install time this process
	spec      campaign.Spec
	specJSON  json.RawMessage
	tasks     []campaign.Task
	jobs      []*job
	remaining int
	journaled bool // the jCampaign record reached the journal
	failErr   error
	canceled  bool
	done      chan struct{}
	doneOnce  sync.Once
}

func (cr *campaignRun) finish(err error) {
	if err != nil && cr.failErr == nil {
		cr.failErr = err
	}
	cr.doneOnce.Do(func() { close(cr.done) })
}

type jobState int

const (
	statePending jobState = iota
	stateLeased
	stateDone
)

// lease is one live grant of a job to a worker connection. A job
// normally has one; a straggling job may briefly carry two — the
// original and a speculative hedge on a different site.
type lease struct {
	owner       *connState
	worker      string
	site        string
	attempt     int
	speculative bool
	granted     time.Time
	lastBeat    time.Time

	// checkpoint-derived progress, for straggler detection
	steps    int       // latest step count streamed by this lease
	stepsAt  time.Time // when steps last advanced (granted until then)
	rate     float64   // EWMA steps/sec
	haveRate bool

	// base is the last complete checkpoint image resolved from this
	// lease — the document its next delta is encoded against. Per-lease,
	// never per-job: a hedged job has two leases streaming independent
	// checkpoint lineages, and folding one worker's delta against the
	// other's base would corrupt silently if the CRC check ever missed.
	base []byte
}

// job is one schedulable pull and its scheduling history.
type job struct {
	id        string
	camp      *campaignRun
	task      campaign.Task
	state     jobState
	leases    []*lease
	notBefore time.Time
	attempts  int // lease grants so far
	straggler bool
	ckpt      json.RawMessage // latest (farthest) checkpoint streamed back
	ckptSteps int             // step count inside ckpt, for farthest-wins
	log       *trace.WorkLog
}

// leaseOf returns the job's lease held by cs, if any.
func (j *job) leaseOf(cs *connState) *lease {
	for _, l := range j.leases {
		if l.owner == cs {
			return l
		}
	}
	return nil
}

// connState tracks one worker connection.
type connState struct {
	name string
	site string
	// Negotiated transport state, written once at hello (before any
	// other request is processed) and read by the grant/heartbeat paths.
	wire  int
	delta bool
	comp  bool
	// evicted marks a slow-consumer eviction: the connection dies but
	// its leases survive for the worker's reconnect to re-attach.
	evicted atomic.Bool
	// waits counts msgWait replies sent to this connection — the jitter
	// key that de-synchronizes an idle fleet. Only the connection's own
	// reader goroutine touches it.
	waits int
}

func (co *Coordinator) hedgingEnabled() bool {
	return co.cfg.HedgeFraction > 0 || co.cfg.HedgeStall > 0
}

// coalesceWindow is how stale a connection-local heartbeat answer may
// be under load. Kept well under the lease TTL so coalescing can never
// age a lease into expiry, and under the TTL/4 janitor period so a
// coalesced lease still refreshes between janitor scans.
func (co *Coordinator) coalesceWindow() time.Duration {
	return co.cfg.LeaseTTL / 8
}

// backoff returns the delay before the next lease of jobID after
// `attempts` grants. The exponential base delay carries deterministic
// jitter in [d/2, d) keyed by (job, attempt): a mass revocation event
// (coordinator restart, site quarantine) spreads its retries across
// half an interval instead of hammering the queue in lockstep, and the
// same schedule replays identically across runs — no shared RNG state,
// no scheduling nondeterminism.
func (co *Coordinator) backoff(jobID string, attempts int) time.Duration {
	return backoff.Policy{Base: co.cfg.RetryBase, Max: co.cfg.RetryMax}.Keyed(jobID, attempts)
}

// idlePollBudget is the aggregate msgNext polls/sec an idle fleet is
// allowed to cost the coordinator: the wait hint scales with the number
// of connected workers so 500 idle workers back off to multi-second
// polls instead of each polling every LeaseTTL/2 in lockstep.
const idlePollBudget = 200

// waitHint builds a msgWait reply around a base delay: the delay is
// floored by the fleet-size poll budget when the fleet is purely idle
// (scale true), capped at the lease TTL, and carries deterministic
// per-(worker, poll) jitter in [0.5, 1) so a fleet that went idle at
// the same instant de-synchronizes within one wait cycle. Lock-free —
// both the scheduler path and the shed path use it.
func (co *Coordinator) waitHint(cs *connState, base time.Duration, scale bool) response {
	delay := base
	if scale {
		if min := time.Duration(co.conns.Load()) * time.Second / idlePollBudget; min > delay {
			delay = min
		}
	}
	if ttl := co.cfg.LeaseTTL; delay > ttl {
		delay = ttl
	}
	cs.waits++
	delay = time.Duration(float64(delay) * backoff.Frac(fmt.Sprintf("%s#%d", cs.name, cs.waits)))
	ms := int(delay / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return response{Type: msgWait, DelayMs: ms}
}

// shedNext answers a msgNext without ever touching the scheduler lock:
// the coordinator is over its in-flight request cap and this poll is
// load it can refuse. The hint scales with fleet size so the herd that
// caused the overload spreads out instead of retrying in lockstep.
func (co *Coordinator) shedNext(cs *connState) response {
	co.shed.Add(1)
	return co.waitHint(cs, co.cfg.LeaseTTL/4, true)
}

// startLocked spins up the accept loop and the lease janitor. Caller
// holds mu.
func (co *Coordinator) startLocked() {
	ctx, cancel := context.WithCancel(context.Background())
	co.cancelServe = cancel
	co.serveDone = make(chan error, 1)
	co.started = true
	go co.janitor(ctx)
	go func() {
		err := netutil.Serve(ctx, co.Listener, co.serveConn)
		// The server is gone; whatever campaigns are in flight cannot
		// finish. A clean Close shows up as ErrServerClosed.
		co.mu.Lock()
		co.closed = true
		for _, camp := range co.camps {
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

// RunTagged installs spec as an active campaign carrying tag — the
// tenant/priority identity the Scheduler and the control plane's quota
// policy read — and blocks until it completes. Any number of campaigns
// may be active concurrently over one worker fleet; each Run/RunTagged
// call owns one of them. Job IDs are scoped by the campaign key, so
// concurrent campaigns (even over overlapping parameter combos) never
// collide in the journal, the checkpoint spool, or the idempotency
// tables. The merged output of each campaign is byte-identical to a
// solo run of the same spec: scheduling decides placement and order,
// never results.
func (co *Coordinator) RunTagged(spec campaign.Spec, tag CampaignTag) (map[campaign.Combo][]*trace.WorkLog, error) {
	tasks := spec.Tasks()
	if len(tasks) == 0 {
		return map[campaign.Combo][]*trace.WorkLog{}, nil
	}
	// The (tag, spec JSON) pair keys journal replay, so a restarted
	// coordinator re-running the same submissions (possibly in a
	// different order) matches each Run to its recovered state.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding spec: %w", err)
	}
	key := campaignKeyTagged(tag, specJSON)

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil, errors.New("dist: coordinator is closed")
	}
	for _, c := range co.camps {
		if c.key == key {
			co.mu.Unlock()
			return nil, fmt.Errorf("dist: campaign %s is already running", key)
		}
	}
	if co.cfg.StateDir != "" && co.journal == nil {
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
			co.mu.Unlock()
			return nil, err
		}
		co.journal = jn
		co.replay = rep
		// Seed the completed-jobs set from the whole journal so a result
		// retransmitted for a job finished before the crash is recognized
		// as a duplicate even if its campaign has not been re-Run yet.
		for _, c := range rep.campaigns {
			for id := range c.done {
				co.doneJobs[id] = true
			}
		}
		co.stats.ReplayedRecords += rep.records
		co.stats.TruncatedTailBytes += tail.TornBytes
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
	}
	if !co.started {
		co.startLocked()
	}
	camp := &campaignRun{
		key:       key,
		tag:       tag,
		seq:       co.campSeq,
		submitted: time.Now(),
		spec:      spec,
		specJSON:  specJSON,
		tasks:     tasks,
		jobs:      make([]*job, len(tasks)),
		remaining: len(tasks),
		done:      make(chan struct{}),
	}
	co.campSeq++
	var rc *replayCampaign
	if co.journal != nil {
		if c := co.replay.campaigns[key]; c != nil && !c.applied {
			rc = c
			// Replayed state is consumed once; if the same submission runs
			// again in this process it starts fresh (and journals fresh
			// records).
			c.applied = true
		}
	}
	for i, t := range tasks {
		// The campaign key scopes the job ID: concurrent campaigns over
		// overlapping combos stay distinct in every per-job table, the
		// journal, and the spool filenames.
		j := &job{id: fmt.Sprintf("%s.smdje-%s-r%d", key, t.Combo, t.Index), camp: camp, task: t}
		camp.jobs[i] = j
		co.jobsByID[j.id] = j
		if co.jobStats[j.id] == nil {
			co.jobStats[j.id] = &JobStats{ID: j.id}
		}
		if rc == nil {
			continue
		}
		js := co.jobStats[j.id]
		// Per-job lease history from before the restart; the live global
		// counters are deliberately not inflated (see Stats doc).
		if hist := rc.workers[j.id]; len(hist) > 0 {
			js.Assignments += len(hist)
			js.Retries += len(hist) - 1
			js.Workers = append(js.Workers, hist...)
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
			j.ckpt = ck
			j.ckptSteps = ckptSteps(ck)
		}
	}
	co.camps = append(co.camps, camp)
	co.stats.Jobs += len(tasks)
	co.cfg.Events.Emit(obs.Event{Name: "campaign_start", Campaign: key, Fields: map[string]any{
		"jobs": len(tasks), "recovered_done": len(tasks) - camp.remaining,
		"tenant": tag.Tenant, "priority": tag.Priority,
	}})
	// A failed campaign record no longer kills the campaign: the
	// coordinator degrades to in-memory scheduling and journalLocked
	// re-journals the campaign record before the first durable (fsynced)
	// record that needs it, so the journal never holds orphan records.
	co.journalLocked(camp, &jrec{T: jCampaign, Camp: key, Spec: specJSON, Tag: &tag}, true)
	if camp.remaining == 0 && camp.failErr == nil {
		// Every job was recovered done — nothing left to schedule.
		camp.finish(nil)
	}
	co.mu.Unlock()

	<-camp.done

	co.mu.Lock()
	co.removeCampLocked(camp)
	err = camp.failErr
	in, out := co.bytes.snapshot()
	co.stats.BytesIn, co.stats.BytesOut = in, out
	done := obs.Event{Name: "campaign_done", Campaign: key}
	if err != nil {
		done.Fields = map[string]any{"error": err.Error()}
	}
	co.cfg.Events.Emit(done)
	co.mu.Unlock()
	if err != nil {
		return nil, err
	}
	logs := make([]*trace.WorkLog, len(camp.jobs))
	for i, j := range camp.jobs {
		logs[i] = j.log
	}
	return campaign.Collate(tasks, logs), nil
}

// removeCampLocked retires a finished campaign: out of the active set
// and its jobs out of the dispatch table. Caller holds mu.
func (co *Coordinator) removeCampLocked(camp *campaignRun) {
	keep := co.camps[:0]
	for _, c := range co.camps {
		if c != camp {
			keep = append(keep, c)
		}
	}
	co.camps = keep
	for _, j := range camp.jobs {
		if co.jobsByID[j.id] == j {
			delete(co.jobsByID, j.id)
		}
	}
}

// ErrCampaignCanceled is the failure error of a campaign killed by
// CancelCampaign; the blocked Run/RunTagged call returns it.
var ErrCampaignCanceled = errors.New("dist: campaign canceled")

// CancelCampaign aborts the active campaign with the given key (see
// SpecKey). The owning Run/RunTagged call returns ErrCampaignCanceled;
// in-flight leases are abandoned on their next heartbeat. It reports
// whether a campaign was actually canceled.
func (co *Coordinator) CancelCampaign(key string) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, c := range co.camps {
		if c.key == key && c.failErr == nil {
			c.canceled = true
			c.finish(ErrCampaignCanceled)
			co.cfg.Events.Emit(obs.Event{Name: "campaign_canceled", Campaign: key})
			return true
		}
	}
	return false
}

// Campaigns returns the scheduling view of every active campaign, in
// install order — the same views the Scheduler is offered.
func (co *Coordinator) Campaigns() []CampaignView {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.campaignViewsLocked()
}

func (co *Coordinator) campaignViewsLocked() []CampaignView {
	views := make([]CampaignView, len(co.camps))
	for i, c := range co.camps {
		v := CampaignView{
			Key:       c.key,
			Tenant:    c.tag.Tenant,
			Priority:  c.tag.Priority,
			Seq:       c.seq,
			Submitted: c.submitted,
			Total:     len(c.jobs),
		}
		for _, j := range c.jobs {
			switch j.state {
			case statePending:
				v.Pending++
			case stateLeased:
				v.Leased++
			case stateDone:
				v.Done++
			}
		}
		views[i] = v
	}
	return views
}

// SetScheduler installs the campaign-ordering policy (Config.Scheduler)
// after construction: the control plane's quota policy needs the
// coordinator it schedules for, so it cannot ride in on the Config.
func (co *Coordinator) SetScheduler(s Scheduler) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.cfg.Scheduler = s
}

// offerOrderLocked resolves the Scheduler's decision into the list of
// campaigns to scan for work, in offer order. Campaigns the policy
// omits (quota-blocked tenants, held-back backfill candidates) are not
// scanned this round. Caller holds mu.
func (co *Coordinator) offerOrderLocked(now time.Time) []*campaignRun {
	if co.cfg.Scheduler == nil {
		return co.camps
	}
	views := co.campaignViewsLocked()
	order := co.cfg.Scheduler.Offer(now, views)
	out := make([]*campaignRun, 0, len(order))
	seen := make(map[int]bool, len(order))
	for _, i := range order {
		if i < 0 || i >= len(co.camps) || seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, co.camps[i])
	}
	return out
}

// Close drains connected workers (their next request is answered with
// drained), then shuts the server down and waits for it. Safe to call
// more than once.
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() { co.closeErr = co.doClose() })
	return co.closeErr
}

func (co *Coordinator) doClose() error {
	co.mu.Lock()
	if !co.started {
		co.closed = true
		jn := co.detachJournalLocked()
		co.mu.Unlock()
		return jn.close()
	}
	co.closed = true
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
	co.mu.Lock()
	jn := co.detachJournalLocked()
	co.mu.Unlock()
	if jerr := jn.close(); jerr != nil && err == nil {
		err = jerr
	}
	if errors.Is(err, netutil.ErrServerClosed) {
		return nil
	}
	return err
}

// detachJournalLocked takes the journal out of service for closing,
// keeping its final storage health in the stats. Caller holds mu.
func (co *Coordinator) detachJournalLocked() *journal {
	jn := co.journal
	if jn != nil {
		co.stats.setStorage(jn.log.Health())
		co.journal = nil
	}
	return jn
}

// janitorPeriod tracks the finer of the lease TTL and the hedge windows
// so both state machines advance promptly.
func (co *Coordinator) janitorPeriod() time.Duration {
	period := co.cfg.LeaseTTL / 4
	if co.hedgingEnabled() {
		if p := co.cfg.HedgeAfter / 2; p < period {
			period = p
		}
		if s := co.cfg.HedgeStall; s > 0 && s/4 < period {
			period = s / 4
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
			co.mu.Lock()
			for _, camp := range co.camps {
				if camp.failErr != nil {
					continue
				}
				for _, j := range camp.jobs {
					if j.state != stateLeased {
						continue
					}
					keep := j.leases[:0]
					for _, l := range j.leases {
						if now.Sub(l.lastBeat) > co.cfg.LeaseTTL {
							co.stats.LeaseExpiries++
							co.jobStats[j.id].LeaseExpiries++
							co.cfg.Events.Emit(obs.Event{Name: "lease_expired", Job: j.id,
								Attempt: l.attempt, Site: l.site, Worker: l.worker})
							co.siteStrikeLocked(l.site, j.id, now, func(sh *siteHealth) { sh.leaseExpiries++ })
							continue
						}
						keep = append(keep, l)
					}
					j.leases = keep
					if len(j.leases) == 0 {
						co.requeueLocked(camp, j)
					}
				}
				co.stragglerScanLocked(camp, now)
			}
			co.storageProbeLocked(now)
			co.mu.Unlock()
		}
	}
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

// siteStrikeLocked records one failure signal against a site, updating
// a per-category counter and the breaker. Caller holds mu.
func (co *Coordinator) siteStrikeLocked(site, jobID string, now time.Time, count func(*siteHealth)) {
	sh := co.siteLocked(site)
	if count != nil {
		count(sh)
	}
	sh.clearProbe(jobID)
	if sh.strike(now, co.cfg.BreakerThreshold) {
		co.stats.BreakerTrips++
		co.cfg.Events.Emit(obs.Event{Name: "breaker_open", Job: jobID, Site: site,
			Fields: map[string]any{"strikes": sh.strikes}})
	}
}

// stragglerScanLocked flags single-leased jobs whose checkpoint-derived
// progress crawls — either in absolute terms (steps stalled for
// HedgeStall while the lease still heartbeats) or relative to the fleet
// (rate below HedgeFraction of the median site rate). Flagged jobs
// become hedge candidates: assign grants them a speculative second
// lease on a different site. Caller holds mu.
func (co *Coordinator) stragglerScanLocked(camp *campaignRun, now time.Time) {
	if !co.hedgingEnabled() {
		return
	}
	median, haveMedian := co.fleetMedianRate()
	for _, j := range camp.jobs {
		if j.state != stateLeased || j.straggler || len(j.leases) != 1 {
			continue
		}
		l := j.leases[0]
		if now.Sub(l.granted) < co.cfg.HedgeAfter {
			continue
		}
		slow := co.cfg.HedgeFraction > 0 && haveMedian && l.haveRate && l.rate < co.cfg.HedgeFraction*median
		stalled := co.cfg.HedgeStall > 0 && now.Sub(l.stepsAt) > co.cfg.HedgeStall
		if slow || stalled {
			j.straggler = true
			co.stats.StragglersDetected++
			co.cfg.Events.Emit(obs.Event{Name: "straggler_flagged", Job: j.id,
				Attempt: l.attempt, Site: l.site, Worker: l.worker,
				Fields: map[string]any{"slow": slow, "stalled": stalled, "rate": l.rate}})
		}
	}
}

// journalLocked appends one record (fsyncing if sync) and reports
// success. A failed append — after the journal's own retries — moves
// the coordinator into the degraded storage state instead of killing
// the campaign: scheduling continues in memory, and the callers of the
// one record class whose durability is load-bearing (fsynced done
// records) check the return value and refuse to acknowledge. While
// degraded, non-critical records are skipped outright (the disk is
// known sick; hammering it from under the mutex helps nobody) until a
// successful durable write clears the state. Caller holds mu.
func (co *Coordinator) journalLocked(camp *campaignRun, r *jrec, sync bool) bool {
	if co.journal == nil {
		return true
	}
	lg := co.journal.log
	if lg.Health().Degraded && !sync {
		return false
	}
	if camp != nil && !camp.journaled && r.T != jCampaign {
		// The campaign record was lost to a degraded spell; nothing about
		// the campaign may land before it or replay drops the records.
		if !sync {
			return false
		}
		rec := &jrec{T: jCampaign, Camp: camp.key, Spec: camp.specJSON, Tag: &camp.tag}
		if lg.Append(rec, false) != nil {
			return false
		}
		camp.journaled = true
	}
	if lg.Append(r, sync) != nil {
		return false
	}
	if r.T == jCampaign && camp != nil {
		camp.journaled = true
	}
	return true
}

// CompactJournal triggers a journal compaction immediately, regardless
// of the size threshold — the explicit operator trigger. A no-op
// without a journal.
func (co *Coordinator) CompactJournal() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.journal == nil {
		return nil
	}
	return co.journal.log.Compact()
}

// requeueLocked returns a job with no remaining leases to the pending
// queue with jittered backoff, or fails the campaign if the job is out
// of attempts. Caller holds mu.
func (co *Coordinator) requeueLocked(camp *campaignRun, j *job) {
	j.state = statePending
	j.leases = nil
	j.straggler = false
	j.notBefore = time.Now().Add(co.backoff(j.id, j.attempts))
	co.cfg.Events.Emit(obs.Event{Name: "job_requeued", Job: j.id, Attempt: j.attempts,
		Fields: map[string]any{"not_before": j.notBefore.UTC().Format(time.RFC3339Nano)}})
	if j.attempts >= co.cfg.MaxAttempts {
		camp.finish(fmt.Errorf("dist: job %s exhausted %d attempts", j.id, j.attempts))
	}
}

// serveConn handles one worker connection. hello must come first.
func (co *Coordinator) serveConn(conn net.Conn) {
	// Deadlines wrap the raw transport, inside any WrapConn shims, so
	// injected test delays model the network without eating the
	// watchdog budget of the real socket.
	if to := co.cfg.IOTimeout; to > 0 {
		conn = netutil.WithDeadlines(conn, to, to)
	}
	if co.cfg.WrapConn != nil {
		conn = co.cfg.WrapConn(conn)
	}
	cc := &countConn{Conn: conn, c: &co.bytes}
	br := bufio.NewReader(cc)
	cs := &connState{}
	co.conns.Add(1)
	defer co.dropConn(cs)

	// The hello exchange always travels as one JSON line per direction —
	// version discovery cannot require already knowing the version, and
	// old workers only speak JSON lines. A raw line read (not a
	// json.Decoder, which buffers bytes past the value) leaves br
	// positioned exactly at the first post-negotiation message, which
	// belongs to whichever codec the grant names.
	sendHelloErr := func(msg string) {
		b, _ := json.Marshal(&response{Type: msgOK, Err: msg})
		_, _ = cc.Write(append(b, '\n'))
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		return
	}
	var hello request
	if err := json.Unmarshal(line, &hello); err != nil || hello.Type != msgHello {
		sendHelloErr("dist: expected hello")
		return
	}
	cs.name = hello.Name
	cs.site = hello.Site
	if cs.site == "" {
		// Unconfigured workers are their own one-machine site.
		cs.site = hello.Name
	}
	ver, downgraded := wire.Negotiate(co.cfg.WireVersion, hello.Wire)
	if downgraded {
		// Never silent: a future-versioned worker still gets served (on
		// v0, the one version everything speaks) but the mismatch is on
		// the record for the operator.
		co.wireDowngrades.Add(1)
		co.cfg.Events.Emit(obs.Event{Name: "wire_downgraded", Site: cs.site, Worker: cs.name,
			Fields: map[string]any{"offered": hello.Wire, "granted": ver}})
	}
	cs.wire = ver
	cs.delta = ver >= wire.V1 && co.cfg.DeltaCheckpoints && !hello.NoDelta
	cs.comp = ver >= wire.V1 && co.cfg.Compression && !hello.NoComp
	if ver >= wire.V1 {
		co.wireV1.Add(1)
	} else {
		co.wireV0.Add(1)
	}
	co.cfg.Events.Emit(obs.Event{Name: "worker_connected", Site: cs.site, Worker: cs.name,
		Fields: map[string]any{"wire": ver, "delta": cs.delta, "compression": cs.comp}})
	grant := &response{Type: msgOK, System: wire.JSONPayload(co.System),
		Wire: ver, Delta: cs.delta, Comp: cs.comp}
	reply, err := json.Marshal(grant)
	if err != nil {
		return
	}
	if _, err := cc.Write(append(reply, '\n')); err != nil {
		return
	}
	codec := wire.NewCodec(ver, br, cc, cs.comp)

	// Responses flow through a bounded per-connection send queue drained
	// by a writer goroutine, so a peer that stops reading can never wedge
	// this reader or hold response memory unboundedly: when the queue
	// fills, the slow consumer is evicted. Eviction kills the connection
	// but keeps its leases (dropConn skips the revocation) so the
	// worker's reconnect re-attaches mid-flight pulls instead of
	// redoing them from the last checkpoint.
	var (
		sendQ      chan response
		writerDone chan struct{}
	)
	if co.cfg.SendQueue > 0 {
		sendQ = make(chan response, co.cfg.SendQueue)
		writerDone = make(chan struct{})
		go func() {
			defer close(writerDone)
			for resp := range sendQ {
				if codec.Encode(&resp) != nil {
					// Dead transport: keep draining so the reader, which may
					// be about to close the channel, never blocks on it.
					for range sendQ {
					}
					return
				}
			}
		}()
		defer func() { close(sendQ); <-writerDone }()
	}
	send := func(resp response) bool {
		if sendQ == nil {
			return codec.Encode(&resp) == nil
		}
		select {
		case sendQ <- resp:
			raiseMax(&co.queuePeak, int64(len(sendQ)))
			return true
		default:
			cs.evicted.Store(true)
			co.evictions.Add(1)
			co.cfg.Events.Emit(obs.Event{Name: "slow_consumer_evicted", Site: cs.site, Worker: cs.name,
				Fields: map[string]any{"queued": len(sendQ)}})
			_ = conn.Close()
			return false
		}
	}

	// Heartbeat-coalescing state, local to this reader goroutine: the
	// last plain beat per job that the normal path answered with a clean
	// msgOK. Under load, a twin of such a beat inside the coalesce
	// window is answered from here without taking the scheduler lock.
	type beatMark struct {
		attempt int
		at      time.Time
	}
	marks := make(map[string]beatMark)
	window := co.coalesceWindow()

	for {
		var req request
		if err := codec.Decode(&req); err != nil {
			return
		}
		var resp response
		n := co.inflight.Add(1)
		limit := int64(co.cfg.MaxInflight)
		switch req.Type {
		case msgNext:
			co.polls.Add(1)
			if limit > 0 && n > limit {
				// Over the in-flight cap: shed the poll. Results, fails and
				// heartbeats are never shed — they shrink the backlog.
				resp = co.shedNext(cs)
			} else {
				resp = co.assign(cs)
			}
		case msgBeat:
			if m, ok := marks[req.JobID]; ok && window > 0 && limit > 0 && 2*n >= limit &&
				m.attempt == req.Attempt && time.Since(m.at) < window {
				co.coalesced.Add(1)
				resp = response{Type: msgOK}
			} else {
				resp = co.heartbeat(cs, &req)
				if resp.Type == msgOK && resp.Err == "" {
					marks[req.JobID] = beatMark{attempt: req.Attempt, at: time.Now()}
				} else {
					delete(marks, req.JobID)
				}
			}
		case msgProgress:
			resp = co.heartbeat(cs, &req)
		case msgResult:
			resp = co.finish(cs, &req)
		case msgFail:
			resp = co.fail(cs, &req)
		default:
			resp = response{Type: msgOK, Err: fmt.Sprintf("dist: unknown message %q", req.Type)}
		}
		co.inflight.Add(-1)
		if !send(resp) {
			return
		}
		if resp.Type == msgDrained {
			return
		}
	}
}

// dropConn revokes every lease held by a dying connection so its jobs
// requeue immediately instead of waiting out the TTL. A slow-consumer
// eviction is the exception: the lease survives the conn, because the
// worker behind it is presumed alive and mid-pull — its reconnect
// re-attaches the lease (heartbeat), and the janitor TTL-expires it if
// the worker really died.
func (co *Coordinator) dropConn(cs *connState) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.conns.Add(-1)
	if cs.evicted.Load() {
		return
	}
	now := time.Now()
	for _, camp := range co.camps {
		for _, j := range camp.jobs {
			if j.state != stateLeased {
				continue
			}
			keep := j.leases[:0]
			for _, l := range j.leases {
				if l.owner == cs {
					co.stats.Disconnects++
					co.cfg.Events.Emit(obs.Event{Name: "worker_disconnected", Job: j.id,
						Attempt: l.attempt, Site: l.site, Worker: l.worker})
					co.siteStrikeLocked(l.site, j.id, now, func(sh *siteHealth) { sh.disconnects++ })
					continue
				}
				keep = append(keep, l)
			}
			j.leases = keep
			if len(j.leases) == 0 {
				co.requeueLocked(camp, j)
			}
		}
	}
}

// grantLocked creates a lease of j for cs and builds the assign reply.
// speculative marks a hedge — a second concurrent lease racing a
// straggler on another site. Caller holds mu.
func (co *Coordinator) grantLocked(camp *campaignRun, j *job, cs *connState, now time.Time, speculative bool) response {
	j.state = stateLeased
	j.attempts++
	l := &lease{
		owner:       cs,
		worker:      cs.name,
		site:        cs.site,
		attempt:     j.attempts,
		speculative: speculative,
		granted:     now,
		lastBeat:    now,
		stepsAt:     now,
		steps:       j.ckptSteps,
		// The resume image seeds the delta base on both sides: the worker
		// keeps the bytes it was handed, so its first progress after a
		// resume can already travel as a delta.
		base: j.ckpt,
	}
	j.leases = append(j.leases, l)
	sh := co.siteLocked(cs.site)
	if sh.state == breakerOpen {
		// Cooldown elapsed (admissibleSiteLocked gated on it): this
		// grant is the half-open probe.
		sh.state = breakerHalfOpen
		co.stats.BreakerProbes++
		co.cfg.Events.Emit(obs.Event{Name: "breaker_probe", Job: j.id, Site: cs.site, Worker: cs.name})
	}
	if sh.state == breakerHalfOpen && sh.probeJob == "" {
		sh.probeJob = j.id
	}
	sh.assignments++
	co.stats.Assignments++
	js := co.jobStats[j.id]
	js.Assignments++
	js.Workers = append(js.Workers, cs.name)
	if speculative {
		co.stats.SpeculationsLaunched++
		js.Speculations++
	} else if j.attempts > 1 {
		co.stats.Retries++
		js.Retries++
	}
	resp := response{Type: msgAssign, Spec: &camp.spec, Job: &wireJob{
		ID:      j.id,
		Combo:   j.task.Combo,
		Seed:    j.task.Seed,
		Index:   j.task.Index,
		Attempt: j.attempts,
	}}
	resumed := len(j.ckpt) > 0
	if resumed {
		// Always a complete image (deltas are folded on receipt),
		// compressed when this connection negotiated it.
		if cs.comp {
			resp.Resume = wire.Compress(j.ckpt)
		} else {
			resp.Resume = wire.JSONPayload(j.ckpt)
		}
		co.stats.Resumes++
		js.Resumes++
	}
	co.cfg.Events.Emit(obs.Event{Name: "lease_granted", Job: j.id, Attempt: j.attempts,
		Site: cs.site, Worker: cs.name,
		Fields: map[string]any{"hedge": speculative, "resumed": resumed}})
	co.journalLocked(camp, &jrec{
		T: jLease, Camp: camp.key, Job: j.id, Worker: cs.name, Site: cs.site,
		Attempt: j.attempts, Resumed: resumed, Hedge: speculative,
	}, false)
	return resp
}

// assign leases the first runnable job to the requesting worker. The
// Scheduler picks the campaign order (priority, fair share, quotas);
// within each offered campaign pending jobs go first in task order,
// then — if the worker's site differs from the holder's — a
// speculative hedge on a flagged straggler.
func (co *Coordinator) assign(cs *connState) response {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return response{Type: msgDrained}
	}
	now := time.Now()
	if !co.siteLocked(cs.site).admissible(now, co.cfg.BreakerCooldown) {
		// Quarantined site (or a probe already in flight): no work until
		// the breaker relents. The paper's §V.C.4 outage as a scheduling
		// decision rather than an operator post-mortem. The adaptive hint
		// spreads a whole quarantined site's workers apart instead of
		// having them re-poll in the lockstep the fixed TTL/2 hint caused.
		return co.waitHint(cs, co.cfg.LeaseTTL/2, true)
	}
	offered := co.offerOrderLocked(now)
	var soonest time.Duration
	for _, camp := range offered {
		if camp.remaining == 0 || camp.failErr != nil {
			continue
		}
		for _, j := range camp.jobs {
			if j.state != statePending {
				continue
			}
			if wait := j.notBefore.Sub(now); wait > 0 {
				if soonest == 0 || wait < soonest {
					soonest = wait
				}
				continue
			}
			return co.grantLocked(camp, j, cs, now, false)
		}
	}
	if co.hedgingEnabled() {
		for _, camp := range offered {
			if camp.remaining == 0 || camp.failErr != nil {
				continue
			}
			for _, j := range camp.jobs {
				if j.state != stateLeased || !j.straggler || len(j.leases) != 1 {
					continue
				}
				if j.leases[0].site == cs.site {
					// Hedging onto the straggling site itself would inherit
					// whatever is wrong with it.
					continue
				}
				return co.grantLocked(camp, j, cs, now, true)
			}
		}
	}
	// Nothing runnable: leased jobs in flight, or pending ones backing
	// off. A pending job's backoff expiry keeps the hint short so the
	// job is picked up promptly; a purely idle fleet (nothing pending at
	// all) scales its poll interval with its own size.
	delay := soonest
	scale := false
	if delay <= 0 || delay > co.cfg.LeaseTTL {
		delay = co.cfg.LeaseTTL / 2
		scale = soonest == 0
	}
	if co.hedgingEnabled() {
		// Idle workers are the hedge pool: they must poll fast enough to
		// pick up a straggler flag soon after the janitor raises it, not
		// half a lease TTL later when the crawling job may have limped
		// home — so fleet scaling never applies to a hedging fleet.
		scale = false
		if lim := co.cfg.HedgeAfter / 2; lim > 0 && delay > lim {
			delay = lim
		}
	}
	return co.waitHint(cs, delay, scale)
}

// ckptSteps extracts the engine step counter from an opaque checkpoint
// payload (smd.PullCheckpoint's Steps field). 0 if absent.
func ckptSteps(ckpt json.RawMessage) int {
	var prog struct {
		Steps int `json:"Steps"`
	}
	_ = json.Unmarshal(ckpt, &prog)
	return prog.Steps
}

// heartbeat refreshes a lease and stores any checkpoint that came with
// it. A worker beating for a *pending* job is adopted: after a
// coordinator restart (or a lease revocation that was never reacted
// on), the worker is still mid-pull and its checkpoint lineage is
// bit-exact, so re-leasing the job to it beats redoing the work. A
// worker beating for a job leased elsewhere is told to abandon — which
// is also how the losing side of a speculation race learns it lost:
// the job is done, the beat gets abandon, the pull is dropped.
func (co *Coordinator) heartbeat(cs *connState, req *request) response {
	co.mu.Lock()
	defer co.mu.Unlock()
	j := co.jobsByID[req.JobID]
	if j == nil || j.state == stateDone || j.camp.failErr != nil {
		// Unknown, finished, or the campaign is dead (failed or canceled):
		// the worker should drop the pull.
		return response{Type: msgAbandon}
	}
	camp := j.camp
	now := time.Now()
	l := j.leaseOf(cs)
	switch {
	case l != nil:
		// A live lease holder (original or hedge); nothing to adjust.
	case j.state == statePending:
		j.state = stateLeased
		if req.Attempt > 0 {
			// The adopted worker's lease attempt becomes the current one,
			// so its eventual result line passes the (job, attempt) check.
			j.attempts = req.Attempt
		}
		l = &lease{
			owner:    cs,
			worker:   cs.name,
			site:     cs.site,
			attempt:  j.attempts,
			granted:  now,
			lastBeat: now,
			stepsAt:  now,
			steps:    j.ckptSteps,
			// The adopted worker's delta base is whatever its last acked
			// checkpoint was — unknowable here. Seed the farthest image we
			// hold: if the worker's base differs, its next delta fails the
			// CRC check and NeedFull heals the pair in one round trip.
			base: j.ckpt,
		}
		j.leases = append(j.leases, l)
		co.siteLocked(cs.site).assignments++
		co.stats.Adoptions++
		co.cfg.Events.Emit(obs.Event{Name: "lease_adopted", Job: j.id, Attempt: j.attempts,
			Site: cs.site, Worker: cs.name})
		js := co.jobStats[j.id]
		js.Adoptions++
		js.Assignments++
		js.Workers = append(js.Workers, cs.name)
		co.journalLocked(camp, &jrec{
			T: jLease, Camp: camp.key, Job: j.id, Worker: cs.name, Site: cs.site,
			Attempt: j.attempts, Resumed: len(j.ckpt) > 0,
		}, false)
	default:
		// Leased to someone else — unless "someone else" is this worker's
		// own evicted previous connection. A slow-consumer eviction kills
		// the conn but keeps the lease precisely so this beat can
		// re-attach it: same worker, same attempt, new pipe, no requeue.
		for _, prev := range j.leases {
			if prev.worker == cs.name && prev.owner != cs && prev.owner.evicted.Load() &&
				(req.Attempt == 0 || req.Attempt == prev.attempt) {
				prev.owner = cs
				prev.site = cs.site
				l = prev
				co.stats.Adoptions++
				co.jobStats[j.id].Adoptions++
				co.cfg.Events.Emit(obs.Event{Name: "lease_reattached", Job: j.id,
					Attempt: prev.attempt, Site: cs.site, Worker: cs.name})
				break
			}
		}
		if l == nil {
			// The beating worker genuinely lost the job.
			return response{Type: msgAbandon}
		}
	}
	l.lastBeat = now
	if req.Type == msgProgress && req.Ckpt != nil {
		// Fold before anything else: every consumer downstream of this
		// point — farthest-wins, the spool, journal replay, a hedge's
		// resume — sees only complete images. A delta that cannot be
		// resolved right here is never stored; the worker is asked for a
		// full image instead, so a crash between receipt and fold can at
		// worst lose one checkpoint generation, never corrupt one.
		raw, err := req.Ckpt.Resolve(l.base)
		if err != nil {
			// Base mismatch (coordinator restart, lost ack, adoption) or a
			// corrupt payload that survived the frame CRC: either way the
			// incremental lineage is broken. NeedFull restarts it.
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
		l.base = raw
		steps := ckptSteps(raw)
		if steps > l.steps {
			if dt := now.Sub(l.stepsAt); dt > 0 {
				r := float64(steps-l.steps) / dt.Seconds()
				if l.haveRate {
					l.rate = (1-ewmaAlpha)*l.rate + ewmaAlpha*r
				} else {
					l.rate, l.haveRate = r, true
				}
				co.siteLocked(l.site).observeRate(r)
			}
			l.steps = steps
			l.stepsAt = now
		}
		co.cfg.Events.Emit(obs.Event{Name: "checkpoint", Job: j.id, Attempt: l.attempt,
			Site: l.site, Worker: l.worker,
			Fields: map[string]any{"steps": steps, "bytes": req.Ckpt.WireLen(), "raw_bytes": len(raw)}})
		if steps >= j.ckptSteps {
			// Farthest-wins: with two concurrent leases on the same
			// bit-exact trajectory, the checkpoint farther along strictly
			// dominates — any future resume hands it out.
			j.ckpt = raw
			j.ckptSteps = steps
			if co.journal != nil && !co.journal.log.Health().Degraded {
				// A checkpoint that cannot reach the spool costs recovery
				// progress, never correctness: the in-memory copy above keeps
				// serving resumes, so a sick disk degrades the coordinator
				// instead of failing the campaign.
				if err := co.journal.spoolCheckpoint(j.id, raw); err != nil {
					co.journal.log.Fault("checkpoint spool", err)
				} else {
					co.journalLocked(camp, &jrec{T: jCkpt, Camp: camp.key, Job: j.id, Attempt: l.attempt}, false)
				}
			}
		}
	}
	return response{Type: msgOK}
}

// finish records a completed job. Results are idempotent by (job,
// attempt): checkpointed resumption is bit-exact, so a retransmitted
// or late result from a retired lease is byte-identical to the one the
// current lease will produce — it is acknowledged (so the worker stops
// retrying) and dropped, never merged twice. The same rule settles
// speculation races: the first attempt to deliver wins, and the other
// lease's eventual result is just another duplicate.
func (co *Coordinator) finish(cs *connState, req *request) response {
	co.mu.Lock()
	defer co.mu.Unlock()
	j := co.jobsByID[req.JobID]
	if j == nil {
		if co.doneJobs[req.JobID] {
			// Completed in an earlier campaign this process (or the journal)
			// knows about; ack so the sender clears its outbox.
			co.stats.DuplicateResultsDropped++
			return response{Type: msgOK}
		}
		return response{Type: msgOK, Err: "dist: unknown job " + req.JobID}
	}
	camp := j.camp
	if camp.failErr != nil {
		// The campaign died (failed or canceled) while this pull was in
		// flight: ack so the worker drops it, merge nothing.
		return response{Type: msgOK}
	}
	if j.state == stateDone {
		// Retransmit of a result already recorded (or raced by another
		// lease's identical result): ack so the sender clears its outbox.
		co.stats.DuplicateResultsDropped++
		return response{Type: msgOK}
	}
	var winner *lease
	if l := j.leaseOf(cs); l != nil && (req.Attempt == 0 || req.Attempt == l.attempt) {
		winner = l
	}
	if j.state == stateLeased && winner == nil {
		// The sender's lease was revoked and the job reassigned (or it
		// lost a speculation race); the surviving lease will deliver the
		// same bytes.
		co.stats.DuplicateResultsDropped++
		return response{Type: msgOK}
	}
	if req.Log == nil {
		return response{Type: msgOK, Err: "dist: result without log"}
	}
	// A pending job is accepted too: its lease expired during coordinator
	// downtime but the worker finished anyway — the result is just as
	// bit-identical. Journal (fsynced — the log is the campaign's
	// irreplaceable output) before the in-memory commit and the ack.
	attempt := j.attempts
	if winner != nil {
		attempt = winner.attempt
	}
	if !co.journalLocked(camp, &jrec{T: jDone, Camp: camp.key, Job: j.id, Attempt: attempt, Log: req.Log}, true) {
		// The result cannot be made durable right now. Acking would break
		// the promise the fsync exists for; failing the campaign would
		// throw away a computed result over a possibly transient disk
		// fault. msgRetry does neither: the worker keeps the line in its
		// outbox and retransmits once the storage probe clears the state.
		return response{Type: msgRetry, DelayMs: int(co.cfg.LeaseTTL / 2 / time.Millisecond)}
	}
	now := time.Now()
	sh := co.siteLocked(cs.site)
	sh.completions++
	if winner != nil {
		sh.observeLatency(now.Sub(winner.granted))
	}
	if sh.success() {
		co.stats.BreakerCloses++
		co.cfg.Events.Emit(obs.Event{Name: "breaker_closed", Job: j.id, Site: cs.site})
	}
	// Settle the speculation race: every other concurrent lease lost.
	for _, l := range j.leases {
		if l == winner {
			continue
		}
		co.stats.SpeculationsWasted++
		co.cfg.Events.Emit(obs.Event{Name: "speculation_lost", Job: j.id, Attempt: l.attempt,
			Site: l.site, Worker: l.worker})
		loser := co.siteLocked(l.site)
		loser.specLost++
		loser.clearProbe(j.id)
		if !l.speculative && l.steps > 0 {
			// The original lease demonstrably crawled and lost to its
			// hedge: that is a health verdict on its site, the same kind
			// of strike a failure would be.
			co.siteStrikeLocked(l.site, j.id, now, nil)
		}
	}
	if winner != nil && winner.speculative {
		co.stats.SpeculationsWon++
		sh.specWon++
	}
	co.doneJobs[j.id] = true
	j.state = stateDone
	j.leases = nil
	j.straggler = false
	j.log = req.Log
	camp.remaining--
	co.cfg.Events.Emit(obs.Event{Name: "result_accepted", Job: j.id, Attempt: attempt,
		Site: cs.site, Worker: cs.name,
		Fields: map[string]any{"remaining": camp.remaining}})
	if co.journal != nil {
		co.journal.removeSpool(j.id)
	}
	if camp.remaining == 0 {
		camp.finish(nil)
	}
	return response{Type: msgOK}
}

// fail requeues a job its worker could not complete. Like finish, it is
// idempotent by (job, attempt): a fail line from a retired lease — the
// job finished elsewhere or was reassigned — is acked and dropped.
func (co *Coordinator) fail(cs *connState, req *request) response {
	co.mu.Lock()
	defer co.mu.Unlock()
	j := co.jobsByID[req.JobID]
	if j == nil {
		if co.doneJobs[req.JobID] {
			co.stats.DuplicateResultsDropped++
			return response{Type: msgOK}
		}
		return response{Type: msgOK, Err: "dist: unknown job " + req.JobID}
	}
	camp := j.camp
	if camp.failErr != nil {
		return response{Type: msgOK}
	}
	l := j.leaseOf(cs)
	if j.state == stateLeased && l != nil && (req.Attempt == 0 || req.Attempt == l.attempt) {
		co.stats.Failures++
		co.cfg.Events.Emit(obs.Event{Name: "job_failed", Job: j.id, Attempt: l.attempt,
			Site: l.site, Worker: l.worker, Fields: map[string]any{"error": req.Err}})
		co.journalLocked(camp, &jrec{T: jFail, Camp: camp.key, Job: j.id, Attempt: l.attempt, Err: req.Err}, false)
		co.siteStrikeLocked(l.site, j.id, time.Now(), func(sh *siteHealth) { sh.failures++ })
		keep := j.leases[:0]
		for _, other := range j.leases {
			if other != l {
				keep = append(keep, other)
			}
		}
		j.leases = keep
		if len(j.leases) == 0 {
			co.requeueLocked(camp, j)
		}
	} else if j.state == stateDone || j.state == stateLeased {
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
	s.BytesIn, s.BytesOut = co.bytes.snapshot()
	if co.journal != nil {
		s.setStorage(co.journal.log.Health())
	}
	s.RequestsShed = int(co.shed.Load())
	s.SlowConsumerEvictions = int(co.evictions.Load())
	s.HeartbeatsCoalesced = int(co.coalesced.Load())
	s.InflightRequests = int(co.inflight.Load())
	s.ConnectedWorkers = int(co.conns.Load())
	s.SendQueuePeak = int(co.queuePeak.Load())
	s.WireV0Conns = int(co.wireV0.Load())
	s.WireV1Conns = int(co.wireV1.Load())
	s.WireDowngrades = int(co.wireDowngrades.Load())
	s.WorkPolls = co.polls.Load()
	return s
}

// JobStats returns the per-job counters keyed by job ID.
func (co *Coordinator) JobStats() map[string]JobStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.jobStatsLocked()
}

func (co *Coordinator) jobStatsLocked() map[string]JobStats {
	out := make(map[string]JobStats, len(co.jobStats))
	for id, js := range co.jobStats {
		cp := *js
		cp.Workers = append([]string(nil), js.Workers...)
		out[id] = cp
	}
	return out
}

// StatsSnapshot implements StatsSource: the campaign counters, per-job
// lease histories and per-site health table captured under one lock
// acquisition, so the three views are mutually coherent — the snapshot
// the statsfmt tables print and the obs /metrics collector scrapes.
func (co *Coordinator) StatsSnapshot() Snapshot {
	co.mu.Lock()
	defer co.mu.Unlock()
	return Snapshot{
		Stats: co.statsLocked(),
		Jobs:  co.jobStatsLocked(),
		Sites: co.siteStatsLocked(),
	}
}

// raiseMax lifts a high-water mark to v unless it is already there. A
// compare-and-swap loop, because every connection's reader raises the
// same mark concurrently and a plain load-then-store lets a smaller
// depth overwrite a larger one.
func raiseMax(mark *atomic.Int64, v int64) {
	for {
		cur := mark.Load()
		if v <= cur || mark.CompareAndSwap(cur, v) {
			return
		}
	}
}

// countConn counts bytes crossing a connection.
type countConn struct {
	net.Conn
	c *counter
}

func (cc *countConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.addIn(n)
	return n, err
}

func (cc *countConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.addOut(n)
	return n, err
}
