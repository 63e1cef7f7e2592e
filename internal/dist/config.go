package dist

// Config is the one knob surface for the dist runtime, and the one
// convention: what you set is what runs, 0 disables the optional
// machinery, and Defaults() is the single statement of production
// defaults. cmd/spice and cmd/spiced bind each flag straight onto a
// field of a Config seeded from Defaults() and hand it to
// NewCoordinator / NewWorker — the only constructors — which validate
// it and keep it: the Coordinator and Worker read these fields
// directly, so a knob exists in exactly one place.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"spice/internal/faultfs"
	"spice/internal/obs"
)

// Config carries every dist runtime knob. Semantics are uniform flag
// semantics: the value set is the value used, and 0 disables optional
// subsystems (breaker, hedging, io-timeout, reconnect window has no
// disable — it bounds a retry loop). Start from Defaults() and override.
type Config struct {
	// --- Scheduling (coordinator) ---

	// LeaseTTL is how long a job survives without a heartbeat before it
	// is revoked and requeued.
	LeaseTTL time.Duration
	// RetryBase and RetryMax bound the exponential backoff before a
	// revoked or failed job is re-leased. The delay carries deterministic
	// per-(job, attempt) jitter so a mass lease-expiry event — every job
	// revoked at once when a coordinator restarts — does not retry in
	// lockstep.
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxAttempts caps lease grants per job before the campaign fails.
	MaxAttempts int
	// StateDir, if non-empty, makes campaigns crash-safe: job-state
	// transitions are written to a journal (results fsynced) under
	// this directory, checkpoints are spooled to disk, and a coordinator
	// started over the same directory replays the journal — completed
	// jobs keep their results, in-flight jobs resume from their spooled
	// checkpoints, and the merged output stays bit-identical to an
	// uninterrupted run. Empty means in-memory only.
	StateDir string
	// CompactBytes compacts the write-ahead journal (fold into a
	// snapshot, truncate the log) when journal.log grows past this size,
	// keeping replay time and disk footprint bounded on long-lived
	// coordinators. 0 disables compaction.
	CompactBytes int64
	// StorageRetries is how many times a failed journal append is
	// retried with short capped backoff before the coordinator enters
	// the degraded storage state. 0 degrades on the first failure.
	StorageRetries int
	// FS routes every journal and spool operation through an injectable
	// filesystem (faultfs.Injector — the disk-fault chaos hook). Nil
	// uses the real OS filesystem.
	FS faultfs.FS

	// --- Resilience (coordinator) ---

	// BreakerThreshold is the consecutive-failure strike count (explicit
	// fails, lease expiries, disconnects with an active lease, lost
	// speculations with streamed progress) that opens a site's circuit
	// breaker. 0 disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is the quarantine before an open site is re-probed
	// with a single half-open probe job. 0 means 2×LeaseTTL, resolved at
	// construction.
	BreakerCooldown time.Duration
	// HedgeFraction hedges a job speculatively onto a second site when
	// its checkpoint-derived steps/sec falls below this fraction of the
	// fleet-median site rate — first finished attempt wins, the loser is
	// dropped through the (job, attempt) idempotency. 0 disables rate
	// hedging.
	HedgeFraction float64
	// HedgeStall also hedges a job whose step counter has not advanced
	// for this long while still heartbeating — alive but stuck, e.g.
	// behind a congested link. 0 disables stall hedging.
	HedgeStall time.Duration
	// HedgeAfter is the minimum lease age before either hedge trigger
	// may fire, so short jobs never get duplicated. 0 means LeaseTTL/2,
	// resolved at construction.
	HedgeAfter time.Duration

	// --- Overload protection (coordinator) ---

	// MaxInflight caps worker requests in processing at once across all
	// connections. Excess work polls are shed with an immediate jittered
	// wait hint that never touches the scheduler lock; results, fails and
	// heartbeats are never shed (they shrink the backlog). 0 disables
	// shedding.
	MaxInflight int

	// --- Transport (both sides) ---

	// IOTimeout arms a fresh read/write deadline before every I/O on
	// every dist connection (netutil.WithDeadlines): a peer that stops
	// making byte progress for this long is treated as dead instead of
	// wedging its reader, and on the worker side a half-open coordinator
	// surfaces as a timeout the Reconnect machinery can heal. 0 disables
	// the deadlines. The coordinator holds an idle worker's poll for at
	// most half of its own value (and half a LeaseTTL), so one fleet, one
	// value: a worker with a much shorter one times out on idle polls.
	IOTimeout time.Duration
	// WrapConn, if set, wraps every connection the coordinator accepts
	// (test QoS shims).
	WrapConn func(net.Conn) net.Conn
	// Dial overrides the worker's transport (test QoS shims). Default
	// net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)

	// --- Execution (worker) ---

	// Slots is the number of jobs a worker runs concurrently (min 1).
	Slots int
	// BeatInterval is the worker heartbeat period. Keep well under
	// LeaseTTL.
	BeatInterval time.Duration
	// CheckpointEvery is the number of recorded samples between
	// checkpoints streamed to the coordinator (min 1).
	CheckpointEvery int
	// Throttle sleeps this long at every checkpoint — a test and demo
	// hook that makes jobs slow enough to observe mid-flight.
	Throttle time.Duration
	// Reconnect makes the worker transport self-healing (daemon
	// semantics): every request, including an unacknowledged result held
	// in the session's outbox, is retried across re-dials with backoff;
	// the coordinator's (job, attempt) idempotency makes the retransmits
	// safe. Off, the first transport error ends the session with that
	// error.
	Reconnect bool
	// ReconnectWindow bounds consecutive reconnect failures without a
	// successful hello before a worker session gives up, so workers don't
	// spin forever after their coordinator is gone for good.
	ReconnectWindow time.Duration
	// ReconnectBackoffMax caps the exponential re-dial backoff (the
	// first retry waits half a BeatInterval).
	ReconnectBackoffMax time.Duration

	// --- Observability (both sides) ---

	// Metrics, if set, gets the dist collectors registered on it: the
	// coordinator contributes its full Snapshot (campaign counters +
	// per-site gauges), the worker its execution counters. Serve it with
	// obs.Serve.
	Metrics *obs.Registry
	// Events, if set, receives the structured scheduling event stream
	// (lease grants/expiries/adoptions, breaker transitions, speculation
	// settlements, journal replay; on a worker, job starts/results and
	// reconnects) with monotonic sequence numbers and the same (job,
	// attempt) keys as the journal, so an event trace can be cross-checked
	// against the final Stats. Nil disables (EventLog is nil-safe).
	Events *obs.EventLog
}

// Defaults returns the production default Config, resilience layer
// (breaker + rate hedging) switched on — the only place a production
// default is written.
func Defaults() Config {
	return Config{
		LeaseTTL:            5 * time.Second,
		RetryBase:           50 * time.Millisecond,
		RetryMax:            2 * time.Second,
		MaxAttempts:         8,
		CompactBytes:        8 << 20,
		StorageRetries:      2,
		BreakerThreshold:    3,
		HedgeFraction:       0.3,
		MaxInflight:         256,
		IOTimeout:           30 * time.Second,
		Slots:               1,
		BeatInterval:        200 * time.Millisecond,
		CheckpointEvery:     8,
		Reconnect:           true,
		ReconnectWindow:     10 * time.Second,
		ReconnectBackoffMax: time.Second,
	}
}

// Validate checks the Config for values that cannot run. It returns the
// first problem found; a nil error means NewCoordinator/NewWorker will
// accept the Config as-is.
func (c Config) Validate() error {
	switch {
	case c.LeaseTTL <= 0:
		return errors.New("dist: Config.LeaseTTL must be positive")
	case c.RetryBase <= 0:
		return errors.New("dist: Config.RetryBase must be positive")
	case c.RetryMax < c.RetryBase:
		return fmt.Errorf("dist: Config.RetryMax (%v) below RetryBase (%v)", c.RetryMax, c.RetryBase)
	case c.MaxAttempts < 1:
		return errors.New("dist: Config.MaxAttempts must be at least 1")
	case c.CompactBytes < 0:
		return errors.New("dist: Config.CompactBytes must be >= 0 (0 disables)")
	case c.StorageRetries < 0:
		return errors.New("dist: Config.StorageRetries must be >= 0")
	case c.BreakerThreshold < 0:
		return errors.New("dist: Config.BreakerThreshold must be >= 0 (0 disables)")
	case c.BreakerCooldown < 0:
		return errors.New("dist: Config.BreakerCooldown must be >= 0")
	case c.HedgeFraction < 0 || c.HedgeFraction >= 1:
		return fmt.Errorf("dist: Config.HedgeFraction %g outside [0, 1)", c.HedgeFraction)
	case c.HedgeStall < 0:
		return errors.New("dist: Config.HedgeStall must be >= 0")
	case c.HedgeAfter < 0:
		return errors.New("dist: Config.HedgeAfter must be >= 0")
	case c.MaxInflight < 0:
		return errors.New("dist: Config.MaxInflight must be >= 0 (0 disables)")
	case c.IOTimeout < 0:
		return errors.New("dist: Config.IOTimeout must be >= 0 (0 disables)")
	case c.Slots < 1:
		return errors.New("dist: Config.Slots must be at least 1")
	case c.BeatInterval <= 0:
		return errors.New("dist: Config.BeatInterval must be positive")
	case c.BeatInterval >= c.LeaseTTL:
		return fmt.Errorf("dist: Config.BeatInterval (%v) must be below LeaseTTL (%v) or every lease expires",
			c.BeatInterval, c.LeaseTTL)
	case c.CheckpointEvery < 1:
		return errors.New("dist: Config.CheckpointEvery must be at least 1")
	case c.Throttle < 0:
		return errors.New("dist: Config.Throttle must be >= 0")
	case c.ReconnectWindow <= 0:
		return errors.New("dist: Config.ReconnectWindow must be positive")
	case c.ReconnectBackoffMax <= 0:
		return errors.New("dist: Config.ReconnectBackoffMax must be positive")
	}
	return nil
}

// NewCoordinator validates cfg and builds a Coordinator serving workers
// on ln (until Close), distributing the opaque system payload to them.
// With a StateDir the journal is opened and replayed first, so a sick
// disk surfaces here; on error ln is left open. The obs hooks are wired:
// cfg.Metrics gets the Snapshot collector registered, cfg.Events
// receives the scheduling event stream.
func NewCoordinator(ln net.Listener, system json.RawMessage, cfg Config) (*Coordinator, error) {
	if ln == nil {
		return nil, errors.New("dist: NewCoordinator needs a listener")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 2 * cfg.LeaseTTL
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = cfg.LeaseTTL / 2
	}
	co := &Coordinator{
		Listener: ln,
		system:   system,
		cfg:      cfg,
		leases:   newLeaseTable(&cfg),
		sites:    make(siteTable),
		jobStats: make(map[string]*JobStats),
	}
	if cfg.StateDir != "" {
		if err := co.replayJournal(); err != nil {
			return nil, err
		}
	}
	// 1 ms … ~16 s in octaves: a wake is sub-millisecond, a park runs to
	// its bound of seconds, a head under load to several of them.
	seconds := obs.ExpBuckets(1e-3, 2, 15)
	co.firstLeaseWait, co.pollPark = obs.NewHistogram(seconds), obs.NewHistogram(seconds)
	if cfg.Metrics != nil {
		RegisterMetrics(cfg.Metrics, co)
	}
	co.start()
	return co, nil
}

// NewWorker validates cfg and builds a Worker that pulls jobs from the
// coordinator at addr, building each job's simulation with build. An
// empty site defaults to name — an unconfigured worker is its own
// one-machine site. The worker's execution counters register on
// cfg.Metrics when set.
func NewWorker(name, site, addr string, build BuildFunc, cfg Config) (*Worker, error) {
	if addr == "" {
		return nil, errors.New("dist: NewWorker needs a coordinator address")
	}
	if build == nil {
		return nil, errors.New("dist: NewWorker needs a Build function")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if site == "" {
		site = name
	}
	w := &Worker{Name: name, Site: site, Addr: addr, Build: build, cfg: cfg}
	if cfg.Metrics != nil {
		w.RegisterMetrics(cfg.Metrics)
	}
	return w, nil
}
