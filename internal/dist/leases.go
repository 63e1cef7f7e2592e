package dist

// The lease table: which jobs exist, which worker connections hold them,
// and when a hold ends (DESIGN.md §7 is the full description). It is
// plain data — every method takes the time as an argument and reports
// what it changed; the Coordinator supplies the lock and the clock and
// books each outcome (counters, events, site health, durable records)
// afterwards. Only grant creates a lease, only beat and progress refresh
// one, only revoke and settle remove one.

import (
	"encoding/json"
	"fmt"
	"time"

	"spice/internal/backoff"
	"spice/internal/campaign"
	"spice/internal/trace"
)

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
	steps   int           // latest step count streamed by this lease
	stepsAt time.Time     // when steps last advanced (granted until then)
	rate    ewma[float64] // steps/sec

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

// leaseOf returns the job's lease held by cs under the given attempt
// number (0 matches any), if there is one.
func (j *job) leaseOf(cs *connState, attempt int) *lease {
	for _, l := range j.leases {
		if l.owner == cs && (attempt == 0 || attempt == l.attempt) {
			return l
		}
	}
	return nil
}

// admits is the invariant every grant must satisfy: a job carries at
// most two leases at once — its primary and one hedge — and never two
// on one site. A primary grant therefore needs a pending job, a hedge a
// job whose sole lease sits on a different site (hedging onto the
// straggling site itself would inherit whatever is wrong with it).
func (j *job) admits(site string, speculative bool) bool {
	if !speculative {
		return j.state == statePending
	}
	return j.state == stateLeased && len(j.leases) == 1 && j.leases[0].site != site
}

// leased calls fn for each job of the campaign that holds a lease, in
// task order, until fn returns false.
func (c *campaignRun) leased(fn func(*job) bool) {
	for _, j := range c.jobs {
		if j.state == stateLeased && !fn(j) {
			return
		}
	}
}

// leaseTable is the job table of every active campaign.
type leaseTable struct {
	camps    []*campaignRun  // active campaigns, install order
	jobsByID map[string]*job // every active campaign's jobs, by scoped ID
	doneJobs map[string]bool // every job this process has accepted (or replayed) a result for

	// retry is the delay before the next lease of a requeued job. The
	// exponential base delay carries deterministic jitter in [d/2, d)
	// keyed by (job, attempt): a mass revocation event (coordinator
	// restart, site quarantine) spreads its retries across half an
	// interval instead of hammering the queue in lockstep, and the same
	// schedule replays identically across runs — no shared RNG state, no
	// scheduling nondeterminism.
	// It runs from LeaseTTL/100 doubling to a cap of 2·LeaseTTL/5 (50 ms
	// and 2 s at the default TTL).
	retry backoff.Policy
}

// maxAttempts is the count of lease grants after which a requeue fails
// the campaign.
const maxAttempts = 8

func newLeaseTable(leaseTTL time.Duration) *leaseTable {
	return &leaseTable{
		jobsByID: make(map[string]*job),
		doneJobs: make(map[string]bool),
		retry:    backoff.Policy{Base: leaseTTL / 100, Max: 2 * leaseTTL / 5},
	}
}

// add installs a campaign and its jobs.
func (t *leaseTable) add(camp *campaignRun) {
	t.camps = append(t.camps, camp)
	for _, j := range camp.jobs {
		t.jobsByID[j.id] = j
	}
}

// remove retires a finished campaign: out of the active set and its
// jobs out of the dispatch table.
func (t *leaseTable) remove(camp *campaignRun) {
	keep := t.camps[:0]
	for _, c := range t.camps {
		if c != camp {
			keep = append(keep, c)
		}
	}
	t.camps = keep
	for _, j := range camp.jobs {
		if t.jobsByID[j.id] == j {
			delete(t.jobsByID, j.id)
		}
	}
}

// views returns the scheduling view of every active campaign, in
// install order.
func (t *leaseTable) views() []CampaignView {
	views := make([]CampaignView, len(t.camps))
	for i, c := range t.camps {
		views[i] = c.view()
	}
	return views
}

// view counts one campaign's jobs by state.
func (c *campaignRun) view() CampaignView {
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
			v.LeasedNs += c.spec.PullNs(j.task.Combo)
		case stateDone:
			v.Done++
		}
	}
	return v
}

// pick chooses the job a work poll from site gets: scanning the
// campaigns in offer order, the first pending job in task order whose
// backoff has run out, else — when hedging — the first flagged
// straggler the site may hedge. With nothing to hand out, soonest is
// the shortest remaining backoff among the pending jobs (0 if none),
// and elsewhere reports a flagged straggler passed over only because
// its lease sits on this very site: the one case in which a poll from
// another site would get work where this one got none.
func (t *leaseTable) pick(order []*campaignRun, site string, now time.Time, hedging bool) (found *job, speculative bool, soonest time.Duration, elsewhere bool) {
	for _, camp := range order {
		if camp.remaining == 0 || camp.failErr != nil {
			continue
		}
		for _, j := range camp.jobs {
			if j.state != statePending {
				continue
			}
			wait := j.notBefore.Sub(now)
			if wait <= 0 {
				return j, false, 0, false
			}
			if soonest == 0 || wait < soonest {
				soonest = wait
			}
		}
	}
	if !hedging {
		return nil, false, soonest, false
	}
	for _, camp := range order {
		if camp.remaining == 0 || camp.failErr != nil {
			continue
		}
		camp.leased(func(j *job) bool {
			switch {
			case !j.straggler || len(j.leases) != 1:
			case j.leases[0].site == site:
				elsewhere = true
			default:
				found = j
			}
			return found == nil
		})
		if found != nil {
			return found, true, 0, false
		}
	}
	return nil, false, soonest, elsewhere
}

// grant leases j to cs under the given attempt number — the only place
// a lease is created, so the only place the two-lease invariant needs
// enforcing: it returns nil when the job does not admit the lease.
func (t *leaseTable) grant(j *job, cs *connState, now time.Time, attempt int, speculative bool) *lease {
	if !j.admits(cs.sess.Site, speculative) {
		return nil
	}
	j.state = stateLeased
	j.attempts = attempt
	l := &lease{
		owner:       cs,
		worker:      cs.sess.Name,
		site:        cs.sess.Site,
		attempt:     attempt,
		speculative: speculative,
		granted:     now,
		lastBeat:    now,
		stepsAt:     now,
		steps:       j.ckptSteps,
		// The resume image seeds the delta base on both sides: a freshly
		// assigned worker keeps the bytes it was handed, so its first
		// progress after a resume can already travel as a delta. An
		// adopted worker's base is whatever its last acked checkpoint was
		// — unknowable here; if it differs from the farthest image we
		// hold, its next delta fails the CRC check and NeedFull heals the
		// pair in one round trip.
		base: j.ckpt,
	}
	j.leases = append(j.leases, l)
	return l
}

// beat finds the lease a heartbeat from cs for job j refreshes and
// stamps it; nil means the worker lost the job and must abandon it. A
// worker beating for a pending job is adopted: after a coordinator
// restart, a revocation it never reacted to, or a dropped connection it
// re-dialed, it is still mid-pull and its checkpoint lineage is
// bit-exact, so re-leasing the job to it beats redoing the work — under
// the worker's own attempt number, so its eventual result passes the
// (job, attempt) check.
func (t *leaseTable) beat(j *job, cs *connState, attempt int, now time.Time) (l *lease, adopted bool) {
	if l = j.leaseOf(cs, 0); l == nil {
		if j.state != statePending {
			return nil, false
		}
		if attempt <= 0 {
			attempt = j.attempts
		}
		l, adopted = t.grant(j, cs, now, attempt, false), true
	}
	l.lastBeat = now
	return l, adopted
}

// progress records a complete checkpoint image streamed under lease l
// at the given step count. It returns the rate observed since the
// lease's steps last advanced (0 when they did not) and whether the
// image became the job's resume point — farthest wins: with two
// concurrent leases on the same bit-exact trajectory, the checkpoint
// farther along strictly dominates, so any future resume hands it out.
func (j *job) progress(l *lease, now time.Time, image []byte, steps int) (rate float64, farthest bool) {
	l.base = image
	if steps > l.steps {
		if dt := now.Sub(l.stepsAt); dt > 0 {
			rate = float64(steps-l.steps) / dt.Seconds()
			l.rate.observe(rate)
		}
		l.steps, l.stepsAt = steps, now
	}
	if steps >= j.ckptSteps {
		j.ckpt, j.ckptSteps, farthest = image, steps, true
	}
	return rate, farthest
}

// revocation is what revoke took from one job.
type revocation struct {
	job    *job
	leases []*lease // the leases removed, in grant order
	// requeued: no lease was left, so the job is pending again and backs
	// off until job.notBefore.
	requeued bool
	// exhausted is the error that failed the job's campaign when this
	// requeue used up its attempts.
	exhausted error
}

// revoke removes the leases of j that match — the only loop that does.
// When that was the job's last lease it returns to the pending queue
// with jittered backoff, and a job already out of attempts fails its
// campaign.
func (t *leaseTable) revoke(j *job, now time.Time, match func(*lease) bool) revocation {
	rv := revocation{job: j}
	keep := j.leases[:0]
	for _, l := range j.leases {
		if match(l) {
			rv.leases = append(rv.leases, l)
		} else {
			keep = append(keep, l)
		}
	}
	j.leases = keep
	if len(rv.leases) == 0 || len(keep) > 0 {
		return rv
	}
	rv.requeued = true
	j.state = statePending
	j.leases = nil
	j.straggler = false
	j.notBefore = now.Add(t.retry.Keyed(j.id, j.attempts))
	if j.attempts >= maxAttempts && j.camp.failErr == nil {
		rv.exhausted = fmt.Errorf("dist: job %s exhausted %d attempts", j.id, j.attempts)
		j.camp.finish(rv.exhausted)
	}
	return rv
}

// revokeWhere applies revoke to every leased job of camps and returns
// the revocations that took something.
func (t *leaseTable) revokeWhere(camps []*campaignRun, now time.Time, match func(*lease) bool) (out []revocation) {
	for _, camp := range camps {
		camp.leased(func(j *job) bool {
			if rv := t.revoke(j, now, match); len(rv.leases) > 0 {
				out = append(out, rv)
			}
			return true
		})
	}
	return out
}

// expire revokes the leases of camp whose last heartbeat is more than
// ttl old.
func (t *leaseTable) expire(camp *campaignRun, now time.Time, ttl time.Duration) []revocation {
	return t.revokeWhere([]*campaignRun{camp}, now, func(l *lease) bool { return now.Sub(l.lastBeat) > ttl })
}

// drop revokes every lease held by connection cs, in any campaign.
func (t *leaseTable) drop(cs *connState, now time.Time) []revocation {
	return t.revokeWhere(t.camps, now, func(l *lease) bool { return l.owner == cs })
}

// flagStragglers offers each not yet flagged job of camp that holds
// exactly one lease to condemn, and flags the ones it condemns: they
// become hedge candidates for pick.
func (t *leaseTable) flagStragglers(camp *campaignRun, condemn func(*job, *lease) bool) {
	camp.leased(func(j *job) bool {
		if !j.straggler && len(j.leases) == 1 && condemn(j, j.leases[0]) {
			j.straggler = true
		}
		return true
	})
}

// claim judges a result delivered by cs for (j, attempt). Results are
// idempotent by (job, attempt): checkpointed resumption is bit-exact, so
// a retransmitted or late result from a retired lease is byte-identical
// to the one the current lease will produce — accept is false and it is
// dropped, never merged twice. The same rule settles speculation races:
// the first attempt to deliver wins. A pending job accepts a result from
// anyone (winner nil): its lease lapsed during coordinator downtime but
// the worker finished anyway, and the bytes are just as identical.
func (j *job) claim(cs *connState, attempt int) (winner *lease, accept bool) {
	switch j.state {
	case stateDone:
		return nil, false
	case stateLeased:
		winner = j.leaseOf(cs, attempt)
		return winner, winner != nil
	}
	return nil, true
}

// settle commits an accepted result: the job is done, its log kept,
// every lease gone. The leases other than the winner lost the race and
// are returned.
func (t *leaseTable) settle(j *job, winner *lease, log *trace.WorkLog) (losers []*lease) {
	for _, l := range j.leases {
		if l != winner {
			losers = append(losers, l)
		}
	}
	t.doneJobs[j.id] = true
	j.state = stateDone
	j.leases = nil
	j.straggler = false
	j.log = log
	j.camp.remaining--
	if j.camp.remaining == 0 {
		j.camp.finish(nil)
	}
	return losers
}
