// Package controlplane is the multi-tenant campaign control plane: a
// long-lived service that accepts SMD sweep campaigns over HTTP, queues
// them durably, and feeds them to a dist.Coordinator under per-tenant
// quotas and live fair-share scheduling.
//
// The package ties three earlier layers together without changing any
// of their invariants:
//
//   - internal/trace gives the queue its crash-safe journal framing, so
//     an accepted campaign survives SIGKILL and replays on restart;
//   - internal/grid contributes the priority + fair-share + aging
//     ranking policy, promoted from the offline planner into the live
//     lease path via dist.Scheduler;
//   - internal/dist executes the campaigns; every accepted campaign goes
//     to the coordinator at once, and the control plane only decides
//     WHOSE jobs are offered to an idle worker next. Results therefore
//     stay bit-identical to a single-tenant, single-process run —
//     scheduling moves work in time, never in value.
//
// Two admission/throughput controls exist per tenant (Quota): MaxQueued
// bounds how many campaigns a tenant may have in flight (enforced at
// submission: HTTP 429), and MaxRunning bounds how many of its jobs may
// hold worker leases at once (enforced on every lease offer).
package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/faultfs"
	"spice/internal/grid"
	"spice/internal/obs"
	"spice/internal/trace"
	"spice/internal/wal"
)

// State is a campaign's lifecycle state in the queue.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether s is a final state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Quota bounds one tenant's resource use. Zero fields mean unlimited.
type Quota struct {
	// MaxQueued caps the tenant's campaigns in non-terminal states
	// (queued + running). Submissions beyond it are rejected (HTTP 429).
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning caps the tenant's jobs holding worker leases at once.
	// Campaigns of a tenant at this limit are skipped when offering
	// work to idle workers; they resume as soon as a lease frees up.
	MaxRunning int `json:"max_running,omitempty"`
}

// Config parameterizes a control plane Server.
type Config struct {
	// Coordinator executes the campaigns. Required; its Scheduler slot
	// must be free — New installs the fair-share/quota scheduler there.
	Coordinator *dist.Coordinator
	// StateDir holds queue.log, the durable campaign queue. Required.
	StateDir string
	// DefaultQuota applies to tenants absent from Quotas.
	DefaultQuota Quota
	// Quotas maps tenant -> per-tenant quota overrides.
	Quotas map[string]Quota
	// Aging is the fair-share aging rate in priority points per waiting
	// hour (see grid.Policy) — the starvation-freedom knob of the live
	// lease path. Each whole point lifts a campaign one priority band;
	// within a band tenant usage, not seniority, decides.
	Aging float64
	// Metrics, if non-nil, receives spice_cp_* counters and gauges.
	Metrics *obs.Registry
	// Events, if non-nil, receives campaign lifecycle events.
	Events *obs.EventLog

	// CompactBytes compacts queue.log (fold into queue.snapshot,
	// truncate the log) when it grows past this size, keeping the
	// on-disk footprint bounded on long-lived control planes. 0
	// disables compaction.
	CompactBytes int64
	// StorageRetries is how many times a failed journal append is
	// retried (short capped backoff) before the server enters the
	// degraded storage state. 0 degrades on the first failure.
	StorageRetries int
	// StorageProbe is how often a degraded server probes the journal
	// with a no-op record to detect recovery (default 500ms).
	StorageProbe time.Duration
	// FS routes every queue journal operation through an injectable
	// filesystem (faultfs.Injector — the disk-fault chaos hook). Nil
	// uses the real OS filesystem.
	FS faultfs.FS

	// --- Overload protection ---

	// MaxConcurrent caps in-flight HTTP requests across the mounted
	// API (0 = unlimited). Excess requests are shed immediately with
	// 503 + Retry-After instead of queueing behind s.mu — under
	// overload a fast refusal beats a slow success.
	MaxConcurrent int
}

// Campaign is the public view of one queued-or-finished campaign.
type Campaign struct {
	ID       string        `json:"id"`
	Tenant   string        `json:"tenant,omitempty"`
	Priority int           `json:"priority,omitempty"`
	Name     string        `json:"name,omitempty"`
	State    State         `json:"state"`
	Error    string        `json:"error,omitempty"`
	Spec     campaign.Spec `json:"spec"`
	// Jobs counts toward completion while running (total / done); both
	// are zero until the campaign reaches the coordinator.
	JobsTotal int       `json:"jobs_total,omitempty"`
	JobsDone  int       `json:"jobs_done,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// entry is the server-side record of one campaign.
type entry struct {
	Campaign
	result map[campaign.Combo][]*trace.WorkLog
	// recovery is the in-flight re-run that rebuilds result after a
	// restart (see Result); concurrent callers wait on it instead of
	// starting a second one.
	recovery *recovery
}

// recovery is one re-run of a finished campaign through the coordinator;
// logs and err are set before done is closed.
type recovery struct {
	done chan struct{}
	logs map[campaign.Combo][]*trace.WorkLog
	err  error
}

// Server is a running control plane.
type Server struct {
	cfg Config

	mu sync.Mutex
	// journal owns the degraded storage state (set when an append fails
	// past its retries, cleared when the prober's no-op record or any
	// later append succeeds); the server owns the policy. While degraded,
	// submissions and cancels are refused with ErrStorageDegraded (HTTP
	// 503 + Retry-After) — the 202 contract cannot be honored — but
	// campaigns already running keep draining and reads stay available.
	journal *wal.Log[qrec, *qrec]
	entries map[string]*entry
	order   []*entry // submission order
	started bool
	closed  bool

	// Metrics (nil-safe wrappers below when cfg.Metrics is nil).
	mSubmits  *obs.CounterVec // spice_cp_submissions_total{tenant}
	mRejects  *obs.CounterVec // spice_cp_rejections_total{tenant,reason}
	mDefers   *obs.CounterVec // spice_cp_quota_skips_total{tenant}
	mFinished *obs.CounterVec // spice_cp_campaigns_finished_total{tenant,state}

	// Overload protection. httpSem is the request-concurrency semaphore
	// (nil when MaxConcurrent is 0); httpSheds counts requests refused at
	// the semaphore — an atomic because the shed path must not touch mu
	// at all.
	httpSem   chan struct{}
	httpSheds atomic.Int64

	// polMu guards pol, the one fair-share ledger. The lease scheduler
	// ranks with it inside the coordinator's lock and must not take s.mu
	// (Get/List call into the coordinator while holding s.mu, so s.mu ->
	// co.mu is the established order and co.mu -> s.mu would deadlock).
	// polMu is a leaf lock: nothing is acquired while holding it.
	polMu sync.Mutex
	pol   *grid.Policy
}

// Errors the HTTP layer maps to status codes.
var (
	// ErrBadSpec rejects a spec no pull of which can run (HTTP 400).
	ErrBadSpec = errors.New("controlplane: spec cannot run")
	// ErrQuotaExceeded rejects a submission over the tenant's MaxQueued.
	ErrQuotaExceeded = errors.New("controlplane: tenant queue quota exceeded")
	// ErrDuplicate rejects a submission whose (spec, tag) identity is
	// already queued, running, or finished. Vary Name to resubmit.
	ErrDuplicate = errors.New("controlplane: campaign already submitted")
	// ErrNotFound is returned for unknown campaign IDs.
	ErrNotFound = errors.New("controlplane: no such campaign")
	// ErrNotDone is returned when results are requested early.
	ErrNotDone = errors.New("controlplane: campaign has not completed")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("controlplane: server is closed")
	// ErrStorageDegraded refuses writes while the queue journal cannot
	// take durable appends: a submission the journal did not record
	// must not be acknowledged. The HTTP layer maps it to 503 with a
	// Retry-After header; the prober clears the state when the disk
	// recovers.
	ErrStorageDegraded = errors.New("controlplane: storage degraded, retry later")
	// ErrOverloaded sheds load when the control plane is saturated
	// (request concurrency over its cap). Maps to 503 + Retry-After.
	// Campaigns already admitted keep draining.
	ErrOverloaded = errors.New("controlplane: overloaded, retry later")
)

// New builds a Server: opens and replays queue.log, installs the
// fair-share scheduler on the coordinator, and registers metrics.
// Campaigns recovered in non-terminal states are re-queued (a campaign
// that was running re-runs through the coordinator's own journal
// replay, so completed jobs are not re-executed). Call Start to hand
// them to the coordinator.
func New(cfg Config) (*Server, error) {
	if cfg.Coordinator == nil {
		return nil, errors.New("controlplane: Config.Coordinator is required")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("controlplane: Config.StateDir is required")
	}
	s := &Server{
		cfg:     cfg,
		entries: make(map[string]*entry),
		pol:     grid.NewPolicy(cfg.Aging),
	}
	if cfg.MaxConcurrent > 0 {
		s.httpSem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if reg := cfg.Metrics; reg != nil {
		s.mSubmits = reg.CounterVec("spice_cp_submissions_total",
			"Campaigns accepted into the control plane queue.", "tenant")
		s.mRejects = reg.CounterVec("spice_cp_rejections_total",
			"Campaign submissions rejected.", "tenant", "reason")
		s.mDefers = reg.CounterVec("spice_cp_quota_skips_total",
			"Lease offers withheld from a tenant at its MaxRunning quota.", "tenant")
		s.mFinished = reg.CounterVec("spice_cp_campaigns_finished_total",
			"Campaigns reaching a terminal state.", "tenant", "state")
		reg.RegisterCollector(s.collect)
	}
	jcfg := queueConfig(cfg.FS, cfg.StateDir)
	jcfg.CompactBytes = cfg.CompactBytes
	jcfg.Retries = cfg.StorageRetries
	jcfg.Notify = s.storageNotify
	journal, replay, tail, err := wal.Open[qrec](jcfg, newQueueScan)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %w", err)
	}
	s.journal = journal
	if tail.TornBytes > 0 {
		s.event("cp_journal_torn_tail", "", map[string]any{"bytes": tail.TornBytes})
	}
	for _, qr := range replay.order {
		var spec campaign.Spec
		if err := json.Unmarshal(qr.rec.Spec, &spec); err != nil {
			journal.Close()
			return nil, fmt.Errorf("controlplane: replaying campaign %s: %w", qr.rec.ID, err)
		}
		e := &entry{
			Campaign: Campaign{
				ID:        qr.rec.ID,
				Tenant:    qr.rec.Tenant,
				Priority:  qr.rec.Priority,
				Name:      qr.rec.Name,
				State:     qr.state,
				Error:     qr.err,
				Spec:      spec,
				Submitted: qr.rec.At,
			},
		}
		// A campaign that was running when the process died replays as
		// queued (its last record is its submit, or a start record in
		// logs written before those were dropped) and Start re-runs it:
		// the coordinator's journal replay makes the re-run resume (or
		// complete instantly) rather than redo finished jobs. Fair-share
		// usage for finished campaigns is re-charged from their specs so
		// the ledger survives restarts too.
		if e.State == StateRunning {
			e.State = StateQueued
		}
		if e.State == StateDone {
			s.charge(e.Tenant, e.Spec.WorkNs())
		}
		s.entries[e.ID] = e
		s.order = append(s.order, e)
	}
	// The live lease path consults the control plane's quotas on every
	// offer.
	cfg.Coordinator.SetScheduler(s.leaseScheduler())
	return s, nil
}

// Start hands the campaigns left queued by replay (or submitted before
// Start) to the coordinator, in submission order, and marks the server
// ready. From then on Submit hands each campaign over itself.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	for _, e := range s.order {
		if e.State == StateQueued {
			s.startLocked(e)
		}
	}
}

// Ready reports readiness: nil once the journal has been replayed and
// the queued campaigns are on the coordinator. Wire it to obs /readyz —
// a control plane that is up but still replaying must not take
// submissions.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.started {
		return errors.New("controlplane: journal replay in progress")
	}
	return s.storageGateLocked()
}

// storageGateLocked is the degraded-storage policy for anything that
// promises durability: nil while the journal is healthy,
// ErrStorageDegraded (with the last storage error) while it is not.
// Requires s.mu.
func (s *Server) storageGateLocked() error {
	if h := s.journal.Health(); h.Degraded {
		return fmt.Errorf("%w (%s)", ErrStorageDegraded, h.LastError)
	}
	return nil
}

// storageNotify logs the journal's transitions into and out of the
// degraded state and starts the recovery prober on the way in. It runs
// inside a journal call, so s.mu is held.
func (s *Server) storageNotify(degraded bool, fields map[string]any) {
	if !degraded {
		s.event("cp_storage_recovered", "", fields)
		return
	}
	s.event("cp_storage_degraded", "", fields)
	if !s.closed {
		go s.probeStorage()
	}
}

func (s *Server) probeInterval() time.Duration {
	if s.cfg.StorageProbe > 0 {
		return s.cfg.StorageProbe
	}
	return 500 * time.Millisecond
}

// probeStorage periodically appends (and fsyncs) a no-op record while
// the server is degraded; the first success flips it back to ready. One
// prober runs per degraded spell.
func (s *Server) probeStorage() {
	for {
		time.Sleep(s.probeInterval())
		s.mu.Lock()
		if s.closed || !s.journal.Health().Degraded {
			s.mu.Unlock()
			return
		}
		err := s.journal.Append(&qrec{T: qNoop, At: time.Now().UTC()}, true)
		s.mu.Unlock()
		if err == nil {
			return
		}
	}
}

// Close stops accepting work and closes the queue journal. Campaigns
// already handed to the coordinator keep running until it shuts down;
// their terminal records are lost for this process but re-derived on
// the next restart's re-run (which replays instantly from the dist
// journal).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.journal.Close()
}

// quotaFor resolves tenant's quota.
func (s *Server) quotaFor(tenant string) Quota {
	if q, ok := s.cfg.Quotas[tenant]; ok {
		return q
	}
	return s.cfg.DefaultQuota
}

// Submit accepts a campaign and, on a started server, hands it to the
// coordinator. It returns the campaign's stable ID (dist.SpecKey of
// spec+tag), having journaled and fsynced the submission first — once
// Submit returns, the campaign survives SIGKILL. ErrBadSpec,
// ErrQuotaExceeded and ErrDuplicate reject without journaling.
func (s *Server) Submit(spec campaign.Spec, tag dist.CampaignTag) (string, error) {
	if err := checkSpec(spec); err != nil {
		s.reject(tag.Tenant, "spec")
		return "", err
	}
	id, err := dist.SpecKey(spec, tag)
	if err != nil {
		return "", err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if err := s.storageGateLocked(); err != nil {
		// The 202 contract is "your campaign survives anything short of
		// disk loss"; with the journal refusing writes that promise
		// cannot be made. Refuse cheaply here — the prober re-opens the
		// gate as soon as the disk takes a fsynced record again.
		s.reject(tag.Tenant, "storage")
		return "", err
	}
	if _, ok := s.entries[id]; ok {
		s.reject(tag.Tenant, "duplicate")
		return id, ErrDuplicate
	}
	if q := s.quotaFor(tag.Tenant); q.MaxQueued > 0 {
		active := 0
		for _, e := range s.order {
			if e.Tenant == tag.Tenant && !e.State.terminal() {
				active++
			}
		}
		if active >= q.MaxQueued {
			s.reject(tag.Tenant, "quota")
			return "", fmt.Errorf("%w: tenant %q has %d campaigns in flight (max %d)",
				ErrQuotaExceeded, tag.Tenant, active, q.MaxQueued)
		}
	}
	now := time.Now().UTC()
	rec := &qrec{
		T: qSubmit, ID: id,
		Tenant: tag.Tenant, Priority: tag.Priority, Name: tag.Name,
		Spec: specJSON, At: now,
	}
	if err := s.journal.Append(rec, true); err != nil {
		// Append already repaired the log back to its last clean record
		// boundary, so the failed submission leaves nothing on disk. The
		// in-memory queue is untouched for the same reason: journal
		// first, apply second, always.
		return "", fmt.Errorf("%w: journaling submission: %s", ErrStorageDegraded, err)
	}
	e := &entry{Campaign: Campaign{
		ID: id, Tenant: tag.Tenant, Priority: tag.Priority, Name: tag.Name,
		State: StateQueued, Spec: spec, Submitted: now,
	}}
	s.entries[id] = e
	s.order = append(s.order, e)
	if s.mSubmits != nil {
		s.mSubmits.With(tag.Tenant).Inc()
	}
	s.event("cp_submitted", id, map[string]any{"tenant": tag.Tenant, "priority": tag.Priority})
	if s.started {
		s.startLocked(e)
	}
	return id, nil
}

func (s *Server) reject(tenant, reason string) {
	if s.mRejects != nil {
		s.mRejects.With(tenant, reason).Inc()
	}
	s.event("cp_rejected", "", map[string]any{"tenant": tenant, "reason": reason})
}

// checkSpec rejects, wrapping ErrBadSpec, a spec whose pulls would all
// fail smd.Protocol.Validate on the workers — each failure a strike
// against the worker's site breaker.
func checkSpec(spec campaign.Spec) error {
	if len(spec.Kappas) == 0 || len(spec.Velocities) == 0 || spec.Replicas <= 0 {
		return fmt.Errorf("%w: need at least one kappa, one velocity, and replicas > 0", ErrBadSpec)
	}
	for _, x := range append(append([]float64{spec.Distance}, spec.Kappas...), spec.Velocities...) {
		if !(x > 0) || math.IsInf(x, 1) {
			return fmt.Errorf("%w: kappas, velocities and distance must be finite and > 0, got %g", ErrBadSpec, x)
		}
	}
	return nil
}

// startLocked hands e to the coordinator, whose lease path decides from
// then on when its jobs run. Nothing is journaled: replay turns a
// running campaign back into a queued one anyway. Requires s.mu.
func (s *Server) startLocked(e *entry) {
	e.State = StateRunning
	e.Started = time.Now().UTC()
	e.JobsTotal = len(e.Spec.Tasks())
	s.event("cp_started", e.ID, map[string]any{"tenant": e.Tenant})
	go s.run(e)
}

// run executes one campaign on the coordinator and journals the result.
func (s *Server) run(e *entry) {
	tag := dist.CampaignTag{Tenant: e.Tenant, Priority: e.Priority, Name: e.Name}
	logs, err := s.cfg.Coordinator.RunTagged(e.Spec, tag)

	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now().UTC()
	e.Finished = now
	var rec *qrec
	switch {
	case err == nil:
		e.State = StateDone
		e.JobsDone = e.JobsTotal
		e.result = logs
		s.charge(e.Tenant, e.Spec.WorkNs())
		rec = &qrec{T: qDone, ID: e.ID, Tenant: e.Tenant, At: now}
	case errors.Is(err, dist.ErrCampaignCanceled):
		e.State = StateCanceled
		// Cancel already journaled the qCancel record before asking the
		// coordinator to stop; nothing further to persist.
	default:
		e.State = StateFailed
		e.Error = err.Error()
		rec = &qrec{T: qFail, ID: e.ID, Tenant: e.Tenant, Err: e.Error, At: now}
	}
	if rec != nil && !s.closed {
		// A lost terminal record is re-derived on the next restart (the
		// re-run replays instantly from the dist journal), so the state
		// change stands either way — but the failure flags degradation.
		if jerr := s.journal.Append(rec, true); jerr != nil {
			s.event("cp_journal_error", e.ID, map[string]any{"err": jerr.Error()})
		}
	}
	if s.mFinished != nil {
		s.mFinished.With(e.Tenant, string(e.State)).Inc()
	}
	s.event("cp_finished", e.ID, map[string]any{"tenant": e.Tenant, "state": string(e.State)})
}

// Cancel cancels a campaign by ID. Queued campaigns (only possible
// before Start) are simply marked; running ones are canceled on the
// coordinator, which fails their remaining jobs with
// ErrCampaignCanceled. Canceling a terminal campaign is a no-op
// returning its current state.
func (s *Server) Cancel(id string) (State, error) {
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		return "", ErrNotFound
	}
	if e.State.terminal() {
		st := e.State
		s.mu.Unlock()
		return st, nil
	}
	if err := s.storageGateLocked(); err != nil {
		s.mu.Unlock()
		return "", err
	}
	wasRunning := e.State == StateRunning
	if err := s.journal.Append(&qrec{T: qCancel, ID: id, Tenant: e.Tenant, At: time.Now().UTC()}, true); err != nil {
		s.mu.Unlock()
		return "", fmt.Errorf("%w: journaling cancel: %s", ErrStorageDegraded, err)
	}
	if !wasRunning {
		e.State = StateCanceled
		e.Finished = time.Now().UTC()
		if s.mFinished != nil {
			s.mFinished.With(e.Tenant, string(StateCanceled)).Inc()
		}
	}
	s.event("cp_canceled", id, map[string]any{"tenant": e.Tenant, "was_running": wasRunning})
	s.mu.Unlock()
	if wasRunning {
		// The coordinator fails the campaign's jobs — or, when run() has
		// not installed it yet, refuses the install — and run() observes
		// ErrCampaignCanceled and finishes the state transition.
		s.cfg.Coordinator.CancelCampaign(id)
		return StateRunning, nil
	}
	return StateCanceled, nil
}

// Get returns the public view of one campaign.
func (s *Server) Get(id string) (Campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return Campaign{}, ErrNotFound
	}
	return s.viewLocked(e), nil
}

// List returns all campaigns in submission order, optionally filtered
// by tenant ("" = all).
func (s *Server) List(tenant string) []Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Campaign, 0, len(s.order))
	for _, e := range s.order {
		if tenant != "" && e.Tenant != tenant {
			continue
		}
		out = append(out, s.viewLocked(e))
	}
	return out
}

// viewLocked snapshots e, refreshing live job counts from the
// coordinator for running campaigns. Requires s.mu.
func (s *Server) viewLocked(e *entry) Campaign {
	c := e.Campaign
	if e.State == StateRunning {
		for _, v := range s.cfg.Coordinator.Campaigns() {
			if v.Key == e.ID {
				c.JobsTotal = v.Total
				c.JobsDone = v.Done
				break
			}
		}
	}
	return c
}

// Result returns a completed campaign's collated work logs. If the
// campaign completed in a previous process (state recovered from the
// journal but results not in memory), it is re-run through the
// coordinator — the dist journal replays every finished job, so this
// completes without re-executing work and yields bit-identical logs.
// The replay can be consumed only once, so one re-run serves every
// concurrent caller: the first starts it, the rest wait for its logs or
// its error. After a failed re-run the next call tries again.
func (s *Server) Result(id string) (map[campaign.Combo][]*trace.WorkLog, error) {
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if e.State != StateDone {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: campaign %s is %s", ErrNotDone, id, e.State)
	}
	if e.result != nil {
		r := e.result
		s.mu.Unlock()
		return r, nil
	}
	r := e.recovery
	if r == nil {
		r = &recovery{done: make(chan struct{})}
		e.recovery = r
		spec, tag := e.Spec, dist.CampaignTag{Tenant: e.Tenant, Priority: e.Priority, Name: e.Name}
		s.mu.Unlock()
		r.logs, r.err = s.cfg.Coordinator.RunTagged(spec, tag)
		s.mu.Lock()
		if r.err == nil {
			e.result = r.logs
		}
		e.recovery = nil
		close(r.done)
	}
	s.mu.Unlock()
	<-r.done
	if r.err != nil {
		return nil, fmt.Errorf("controlplane: recovering results for %s: %w", id, r.err)
	}
	return r.logs, nil
}

// leaseScheduler builds the dist.Scheduler — the control plane's one
// scheduler — enforcing per-tenant MaxRunning quotas with fair-share
// ordering on the live lease path: priority band first, then the tenant
// with the least usage plus work leased right now, so of two
// equal-priority campaigns the one whose tenant is idle gets the next
// free worker however recently it came. It runs inside the
// coordinator's lock, so it must not take s.mu (see polMu); it reads
// only immutable config, atomic metric counters, and the ledger under
// the leaf polMu.
func (s *Server) leaseScheduler() dist.Scheduler {
	return dist.SchedulerFunc(func(now time.Time, views []dist.CampaignView) []int {
		leased := make(map[string]float64, len(views))
		running := make(map[string]int, len(views))
		for _, v := range views {
			leased[v.Tenant] += v.LeasedNs
			running[v.Tenant] += v.Leased
		}
		cands := make([]grid.Candidate, len(views))
		for i, v := range views {
			cands[i] = grid.Candidate{
				Tenant:    v.Tenant,
				Priority:  v.Priority,
				WaitHours: now.Sub(v.Submitted).Hours(),
				Seq:       v.Seq,
			}
		}
		s.polMu.Lock()
		order := s.pol.Rank(cands, leased)
		s.polMu.Unlock()
		out := make([]int, 0, len(order))
		for _, i := range order {
			v := views[i]
			if q := s.quotaFor(v.Tenant); q.MaxRunning > 0 && running[v.Tenant] >= q.MaxRunning {
				if s.mDefers != nil {
					s.mDefers.With(v.Tenant).Inc()
				}
				// Conservative: a quota-blocked campaign blocks everything
				// ranked behind it, so strict policy order is never
				// violated by opportunistic jumps.
				break
			}
			out = append(out, i)
		}
		return out
	})
}

// charge adds to the fair-share ledger under the leaf polMu.
func (s *Server) charge(tenant string, amount float64) {
	s.polMu.Lock()
	s.pol.Charge(tenant, amount)
	s.polMu.Unlock()
}

// QueueStats is one tenant's queue-depth row.
type QueueStats struct {
	Tenant   string `json:"tenant"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Canceled int    `json:"canceled"`
	// Usage is the tenant's accumulated fair-share charge: the simulated
	// nanoseconds of its finished campaigns' pulls (campaign.Spec.WorkNs).
	Usage float64 `json:"usage"`
}

// Stats returns per-tenant queue depths sorted by tenant — the queue
// half of the unified stats surface (the coordinator's dist.Snapshot is
// the execution half; /api/v1/stats serves both together).
func (s *Server) Stats() []QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.polMu.Lock()
	defer s.polMu.Unlock()
	byTenant := make(map[string]*QueueStats)
	for _, e := range s.order {
		qs := byTenant[e.Tenant]
		if qs == nil {
			qs = &QueueStats{Tenant: e.Tenant, Usage: s.pol.Usage(e.Tenant)}
			byTenant[e.Tenant] = qs
		}
		switch e.State {
		case StateQueued:
			qs.Queued++
		case StateRunning:
			qs.Running++
		case StateDone:
			qs.Done++
		case StateFailed:
			qs.Failed++
		case StateCanceled:
			qs.Canceled++
		}
	}
	out := make([]QueueStats, 0, len(byTenant))
	for _, qs := range byTenant {
		out = append(out, *qs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// StorageHealth is the queue journal's health snapshot.
type StorageHealth struct {
	Degraded       bool   `json:"degraded"`
	LastError      string `json:"last_error,omitempty"`
	Degradations   int    `json:"degradations"`
	Recoveries     int    `json:"recoveries"`
	Compactions    int    `json:"compactions"`
	StorageErrors  int    `json:"storage_errors"`
	StorageRetries int    `json:"storage_retries"`
	JournalBytes   int64  `json:"journal_bytes"`
}

// StorageHealth reports the queue journal's current health — the same
// numbers the spice_storage_*{journal="queue"} metrics export.
func (s *Server) StorageHealth() StorageHealth {
	s.mu.Lock()
	h := s.journal.Health()
	s.mu.Unlock()
	return StorageHealth{
		Degraded:       h.Degraded,
		LastError:      h.LastError,
		Degradations:   h.Degradations,
		Recoveries:     h.Recoveries,
		Compactions:    h.Compactions,
		StorageErrors:  h.Errors,
		StorageRetries: h.Retries,
		JournalBytes:   h.Bytes,
	}
}

// collect emits the per-tenant rows of Stats — queue depths and the
// fair-share ledger — as gauges at scrape time.
func (s *Server) collect(e *obs.Emitter) {
	rows := s.Stats()
	s.mu.Lock()
	sh := s.journal.Health()
	s.mu.Unlock()
	// Same families as the dist journal exports, told apart by label.
	sh.Emit(e, "queue")
	e.Counter("spice_cp_http_shed_total", "HTTP requests shed at the concurrency limiter.", float64(s.httpSheds.Load()))
	for _, q := range rows {
		tenant := obs.Label{Name: "tenant", Value: q.Tenant}
		for _, d := range []struct {
			st State
			n  int
		}{{StateQueued, q.Queued}, {StateRunning, q.Running}, {StateDone, q.Done}, {StateFailed, q.Failed}, {StateCanceled, q.Canceled}} {
			e.Gauge("spice_cp_campaigns", "Campaigns by tenant and state.", float64(d.n), tenant, obs.Label{Name: "state", Value: string(d.st)})
		}
		e.Gauge("spice_cp_tenant_usage", "Fair-share ledger: simulated ns of the tenant's finished pulls.", q.Usage, tenant)
	}
}

// event emits a lifecycle event when an event log is configured.
func (s *Server) event(name, id string, fields map[string]any) {
	if s.cfg.Events == nil {
		return
	}
	s.cfg.Events.Emit(obs.Event{Name: name, Campaign: id, Fields: fields})
}
