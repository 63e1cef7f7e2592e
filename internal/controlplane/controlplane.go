// Package controlplane is the multi-tenant campaign control plane: a
// long-lived service that accepts SMD sweep campaigns over HTTP and
// feeds them to a dist.Coordinator under per-tenant quotas and live
// fair-share scheduling.
//
// The package ties three earlier layers together without changing any
// of their invariants:
//
//   - the coordinator's journal is the one durable record of a campaign:
//     Submit answers only once the campaign record is fsynced there, a
//     cancel once its cancel record is, and New rebuilds every campaign
//     from the journal's replay, so an accepted campaign survives
//     SIGKILL;
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
	// Coordinator executes the campaigns and its journal records them.
	// Required; its Scheduler slot must be free — New installs the
	// fair-share/quota scheduler there.
	Coordinator *dist.Coordinator
	// StateDir, if set, holds the queue.log an older control plane
	// wrote, which New imports read-only (see queue.go).
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
	// Metrics, if non-nil, gets the spice_cp_* collector registered.
	Metrics *obs.Registry
	// Events, if non-nil, receives campaign lifecycle events.
	Events *obs.EventLog

	// CompactBytes and StorageRetries are ignored: the control plane
	// writes no log of its own. The coordinator's dist.Config fields of
	// the same names tune its journal.
	CompactBytes   int64
	StorageRetries int
	// FS reads the older queue.log through an injectable filesystem. Nil
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

	mu      sync.Mutex
	entries map[string]*entry
	order   []*entry // submission order
	started bool
	closed  bool
	// The per-tenant counts collect exports: accepted submissions,
	// rejections by reason and finishes by terminal state.
	submits, rejects, finished map[countKey]int64

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
	// skips counts lease offers withheld from a tenant at its MaxRunning
	// quota; the lease scheduler counts them, so they sit under polMu.
	skips map[countKey]int64
}

// countKey keys a per-tenant count; sub is the value of the count's
// second label (reason, state), empty for tenant-only counts.
type countKey struct{ tenant, sub string }

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
	// ErrStorageDegraded refuses submissions and cancels the
	// coordinator's journal cannot make durable: what it did not record
	// must not be acknowledged. The HTTP layer maps it to 503 with a
	// Retry-After header; the coordinator's storage probe clears it.
	ErrStorageDegraded = errors.New("controlplane: storage degraded, retry later")
	// ErrOverloaded sheds load when the control plane is saturated
	// (request concurrency over its cap). Maps to 503 + Retry-After.
	// Campaigns already admitted keep draining.
	ErrOverloaded = errors.New("controlplane: overloaded, retry later")
)

// New builds a Server: it rebuilds the campaigns from the coordinator's
// journal replay (plus a queue.log an older server left in StateDir),
// installs the fair-share scheduler on the coordinator, and registers
// metrics. A campaign that was running when the process died comes back
// queued, and Start re-installs it: the journal replay makes it resume
// (or complete instantly) rather than redo finished jobs. Finished
// campaigns are re-charged to the fair-share ledger from their specs.
func New(cfg Config) (*Server, error) {
	if cfg.Coordinator == nil {
		return nil, errors.New("controlplane: Config.Coordinator is required")
	}
	s := &Server{
		cfg:      cfg,
		entries:  make(map[string]*entry),
		submits:  make(map[countKey]int64),
		rejects:  make(map[countKey]int64),
		finished: make(map[countKey]int64),
		pol:      grid.NewPolicy(cfg.Aging),
		skips:    make(map[countKey]int64),
	}
	if cfg.MaxConcurrent > 0 {
		s.httpSem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.RegisterCollector(s.collect)
	}
	legacy := newQueueScan()
	if cfg.StateDir != "" {
		var err error
		if legacy, err = importQueue(cfg.FS, cfg.StateDir); err != nil {
			return nil, err
		}
	}
	// The older log goes first: a campaign the journal holds only a
	// cancel for gets its spec from it.
	for _, qr := range legacy.order {
		tag := dist.CampaignTag{Tenant: qr.rec.Tenant, Priority: qr.rec.Priority, Name: qr.rec.Name}
		e, err := s.restore(qr.rec.ID, tag, qr.rec.Spec, qr.rec.At)
		if err != nil {
			return nil, err
		}
		e.settle(qr.state, qr.err)
	}
	for _, rc := range cfg.Coordinator.Replayed() {
		e, err := s.restore(rc.Key, rc.Tag, rc.Spec, rc.At)
		if err != nil {
			return nil, err
		}
		switch {
		case e == nil:
		case rc.Canceled:
			e.settle(StateCanceled, "")
		case rc.Err != "":
			e.settle(StateFailed, rc.Err)
		case rc.Done == len(e.Spec.Tasks()):
			e.settle(StateDone, "")
		}
	}
	// The journal re-emits campaigns in key order when it compacts, so
	// submission order is the submission time.
	sort.SliceStable(s.order, func(i, j int) bool { return s.order[i].Submitted.Before(s.order[j].Submitted) })
	for _, e := range s.order {
		if e.State == StateDone {
			s.charge(e.Tenant, e.Spec.WorkNs())
		}
	}
	// The live lease path consults the control plane's quotas on every
	// offer.
	cfg.Coordinator.SetScheduler(s.leaseScheduler())
	return s, nil
}

// restore returns the entry for a replayed campaign, creating it (queued)
// the first time a spec comes with the id, and fills in a submission
// time still unknown. Without an entry or a spec it returns nil.
func (s *Server) restore(id string, tag dist.CampaignTag, specJSON json.RawMessage, at time.Time) (*entry, error) {
	e := s.entries[id]
	if e == nil {
		if len(specJSON) == 0 {
			return nil, nil
		}
		var spec campaign.Spec
		if err := json.Unmarshal(specJSON, &spec); err != nil {
			return nil, fmt.Errorf("controlplane: replaying campaign %s: %w", id, err)
		}
		e = &entry{Campaign: Campaign{ID: id, Tenant: tag.Tenant, Priority: tag.Priority, Name: tag.Name,
			State: StateQueued, Spec: spec}}
		s.entries[id] = e
		s.order = append(s.order, e)
	}
	if e.Submitted.IsZero() {
		e.Submitted = at
	}
	return e, nil
}

// settle moves a replayed entry to st unless it already ended; a running
// campaign replays as queued.
func (e *entry) settle(st State, reason string) {
	if !e.State.terminal() && st.terminal() {
		e.State, e.Error = st, reason
	}
}

// Start installs the campaigns left queued by replay on the coordinator,
// in submission order, and marks the server ready. A campaign whose
// install fails (its record could not be made durable) fails in memory
// and replays queued again after the next restart.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	for _, e := range s.order {
		if e.State != StateQueued {
			continue
		}
		if err := s.startLocked(e); err != nil {
			s.finishLocked(e, nil, err)
		}
	}
}

// Ready reports readiness: nil once the replayed campaigns are on the
// coordinator and while its journal takes durable appends. Wire it to
// obs /readyz — a control plane that is up but still replaying, or
// cannot record a submission, must not take one.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.started {
		return errors.New("controlplane: journal replay in progress")
	}
	return s.storageGate()
}

// storageGate is the degraded-storage policy for anything that promises
// durability: nil while the coordinator's journal is healthy,
// ErrStorageDegraded (with the last storage error) while it is not.
func (s *Server) storageGate() error {
	if st := s.cfg.Coordinator.Stats(); st.StorageDegraded {
		return fmt.Errorf("%w (%s)", ErrStorageDegraded, st.LastStorageErr)
	}
	return nil
}

// Close stops accepting work. Campaigns already on the coordinator keep
// running until it shuts down; the coordinator's journal holds all a
// restart needs of them.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// quotaFor resolves tenant's quota.
func (s *Server) quotaFor(tenant string) Quota {
	if q, ok := s.cfg.Quotas[tenant]; ok {
		return q
	}
	return s.cfg.DefaultQuota
}

// Submit accepts a campaign and installs it on the coordinator. It
// returns the campaign's stable ID (dist.SpecKey of spec+tag) once the
// install has fsynced the campaign record — once Submit returns, the
// campaign survives SIGKILL. ErrBadSpec, ErrQuotaExceeded and
// ErrDuplicate reject without a record; so does ErrStorageDegraded,
// when the record cannot be made durable.
func (s *Server) Submit(spec campaign.Spec, tag dist.CampaignTag) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkSpec(spec); err != nil {
		s.reject(tag.Tenant, "spec")
		return "", err
	}
	id, err := dist.SpecKey(spec, tag)
	if err != nil {
		return "", err
	}
	if s.closed {
		return "", ErrClosed
	}
	if err := s.storageGate(); err != nil {
		// The 202 contract is "your campaign survives anything short of
		// disk loss"; with the journal refusing writes that promise
		// cannot be made. Refuse cheaply here — the coordinator's probe
		// re-opens the gate as soon as the disk takes a fsynced record.
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
	e := &entry{Campaign: Campaign{
		ID: id, Tenant: tag.Tenant, Priority: tag.Priority, Name: tag.Name,
		State: StateQueued, Spec: spec, Submitted: time.Now().UTC(),
	}}
	if err := s.startLocked(e); err != nil {
		// A refused install leaves nothing on disk (the journal repaired
		// itself back to its last clean record) and nothing in memory.
		if gate := s.storageGate(); gate != nil {
			return "", gate
		}
		return "", err
	}
	s.entries[id] = e
	s.order = append(s.order, e)
	s.submits[countKey{tenant: tag.Tenant}]++
	s.event("cp_submitted", id, map[string]any{"tenant": tag.Tenant, "priority": tag.Priority})
	return id, nil
}

// reject counts and logs a refused submission. Requires s.mu.
func (s *Server) reject(tenant, reason string) {
	s.rejects[countKey{tenant, reason}]++
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

// startLocked installs e on the coordinator, whose lease path decides
// from then on when its jobs run, and waits for it on a goroutine. The
// install returns once e's campaign record is durable, and refuses (the
// error returned) when it cannot be made so. Requires s.mu.
func (s *Server) startLocked(e *entry) error {
	tag := dist.CampaignTag{Tenant: e.Tenant, Priority: e.Priority, Name: e.Name}
	in, err := s.cfg.Coordinator.Install(e.Spec, tag, e.Submitted)
	if err != nil {
		return err
	}
	e.State = StateRunning
	e.Started = time.Now().UTC()
	e.JobsTotal = len(e.Spec.Tasks())
	s.event("cp_started", e.ID, map[string]any{"tenant": e.Tenant})
	go s.run(e, in)
	return nil
}

// run waits for one installed campaign and records how it ended.
func (s *Server) run(e *entry, in *dist.Installed) {
	logs, err := in.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(e, logs, err)
}

// finishLocked moves e to its terminal state. Nothing is written: the
// coordinator's journal already holds the done results, the cancel or
// the failure, and a campaign ended by the coordinator's shutdown
// resumes on the next restart. Requires s.mu.
func (s *Server) finishLocked(e *entry, logs map[campaign.Combo][]*trace.WorkLog, err error) {
	e.Finished = time.Now().UTC()
	switch {
	case err == nil:
		e.State = StateDone
		e.JobsDone = e.JobsTotal
		e.result = logs
		s.charge(e.Tenant, e.Spec.WorkNs())
	case errors.Is(err, dist.ErrCampaignCanceled):
		e.State = StateCanceled
	default:
		e.State = StateFailed
		e.Error = err.Error()
	}
	s.finished[countKey{e.Tenant, string(e.State)}]++
	s.event("cp_finished", e.ID, map[string]any{"tenant": e.Tenant, "state": string(e.State)})
}

// Cancel cancels a campaign by ID once the coordinator has fsynced its
// cancel record. Queued campaigns (only possible between New and Start)
// are simply marked; running ones are canceled on the coordinator, which
// fails their remaining jobs with ErrCampaignCanceled. Canceling a
// terminal campaign is a no-op returning its current state.
func (s *Server) Cancel(id string) (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return "", ErrNotFound
	}
	if e.State.terminal() {
		return e.State, nil
	}
	if _, err := s.cfg.Coordinator.CancelCampaign(id); err != nil {
		return "", fmt.Errorf("%w: %s", ErrStorageDegraded, err)
	}
	wasRunning := e.State == StateRunning
	s.event("cp_canceled", id, map[string]any{"tenant": e.Tenant, "was_running": wasRunning})
	if wasRunning {
		// run() observes ErrCampaignCanceled and finishes the transition.
		return StateRunning, nil
	}
	s.finishLocked(e, nil, dist.ErrCampaignCanceled)
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
// journal but results not in memory), it is re-installed on the
// coordinator — the journal replays every finished job, so this
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
// only immutable config, and touches the ledger and the quota-skip
// counts under the leaf polMu.
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
				s.polMu.Lock()
				s.skips[countKey{tenant: v.Tenant}]++
				s.polMu.Unlock()
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

// collect emits the per-tenant rows of Stats — queue depths and the
// fair-share ledger — as gauges, and the per-tenant counts as counters,
// at scrape time.
func (s *Server) collect(e *obs.Emitter) {
	rows := s.Stats()
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
	s.mu.Lock()
	emitCounts(e, "spice_cp_submissions_total", "Campaigns accepted into the control plane queue.", "", s.submits)
	emitCounts(e, "spice_cp_rejections_total", "Campaign submissions rejected.", "reason", s.rejects)
	emitCounts(e, "spice_cp_campaigns_finished_total", "Campaigns reaching a terminal state.", "state", s.finished)
	s.mu.Unlock()
	s.polMu.Lock()
	emitCounts(e, "spice_cp_quota_skips_total", "Lease offers withheld from a tenant at its MaxRunning quota.", "", s.skips)
	s.polMu.Unlock()
}

// emitCounts emits counts as one counter family labeled by tenant and,
// when sub names it, the key's second label; series sorted by key.
func emitCounts(e *obs.Emitter, name, help, sub string, counts map[countKey]int64) {
	keys := make([]countKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].sub < keys[j].sub
	})
	for _, k := range keys {
		labels := []obs.Label{{Name: "tenant", Value: k.tenant}}
		if sub != "" {
			labels = append(labels, obs.Label{Name: sub, Value: k.sub})
		}
		e.Counter(name, help, float64(counts[k]), labels...)
	}
}

// event emits a lifecycle event when an event log is configured.
func (s *Server) event(name, id string, fields map[string]any) {
	if s.cfg.Events == nil {
		return
	}
	s.cfg.Events.Emit(obs.Event{Name: name, Campaign: id, Fields: fields})
}
