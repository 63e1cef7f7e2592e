package dist

// Config is the one knob surface for the dist runtime, and the one
// convention: what you set is what runs, 0 disables the optional
// machinery, and Defaults() is the single statement of production
// defaults. cmd/spiced — the one binary that hosts a coordinator
// (-serve) or runs a worker — binds its flags onto a Config seeded from
// Defaults(); NewCoordinator and NewWorker, the only constructors,
// validate it and keep it, so a knob exists in exactly one place. A
// field is what a deployment sets (a spiced flag), a hook (FS, Dial,
// Metrics, Events), or one of three test seams: LeaseTTL, the time scale
// every other coordinator window is a fraction of, and the two hedge
// knobs. Everything else is a constant.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"spice/internal/faultfs"
	"spice/internal/obs"
)

// Config carries every dist runtime knob: the value set is the value
// used, and 0 disables an optional subsystem. Start from Defaults().
type Config struct {
	// --- Scheduling (coordinator) ---

	// LeaseTTL is how long a job survives without a heartbeat before it
	// is revoked and requeued. It is the coordinator's one time scale:
	// every other coordinator window is a fixed fraction of it (requeue
	// backoff LeaseTTL/100 doubling to 2·LeaseTTL/5, breaker cooldown
	// 2·LeaseTTL, park bound and hedge window LeaseTTL/2, janitor period
	// LeaseTTL/4), so a test that wants the runtime faster shortens
	// LeaseTTL alone.
	LeaseTTL time.Duration
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
	//
	// No flag sets these: production runs Defaults(), and any other value
	// is a test seam for the gates each field names. They stay settable
	// because those gates need a hedge window far inside the lease TTL
	// (TestChaosSlowSiteSpeculation hedges at 150 ms against a 10 s TTL),
	// which no fraction of LeaseTTL expresses; an injected clock would.
	// The site breaker has no knob: it opens at 3 strikes in a row and
	// re-probes after 2·LeaseTTL.

	// HedgeFraction hedges a job onto a second site when its steps/sec
	// falls below this fraction of the fleet-median site rate; the first
	// finished attempt wins. 0 disables rate hedging, as the suites' test
	// configs do. Test seam: TestStragglerScanTriggers,
	// TestStragglingPredicate, TestChaosSlowSiteSpeculation,
	// TestSpeculativeHedgeRace, TestJournalReplaySpeculativeLeasePair,
	// TestWakeOnStragglerFlag.
	HedgeFraction float64
	// HedgeAfter is the lease age before the rate trigger may fire, so
	// short jobs are never duplicated; 0 means LeaseTTL/2. Test seam:
	// the HedgeFraction gates; examples/federated sets it to show a
	// hedge in a short demo.
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
	// surfaces as a timeout the worker's re-dial can heal. 0 disables
	// the deadlines. The coordinator holds an idle worker's poll for at
	// most half of its own value (and half a LeaseTTL), so one fleet, one
	// value: a worker with a much shorter one times out on idle polls
	// (spiced refuses a worker -io-timeout under the lease TTL). A
	// coordinator-side QoS shim wraps the listener handed to
	// NewCoordinator, so it sits inside these deadlines.
	IOTimeout time.Duration
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
	// ReconnectWindow bounds consecutive reconnect failures without a
	// successful hello before a worker session gives up, so workers don't
	// spin forever after their coordinator is gone for good. Within it the
	// worker transport heals itself: every request, including an
	// unacknowledged result, is retried across re-dials with backoff, and
	// the coordinator's (job, attempt) idempotency makes the retransmits
	// safe.
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

// Defaults returns the production default Config, rate hedging switched
// on — the only place a production default is written.
func Defaults() Config {
	return Config{
		LeaseTTL:            5 * time.Second,
		CompactBytes:        8 << 20,
		StorageRetries:      2,
		HedgeFraction:       0.3,
		MaxInflight:         256,
		IOTimeout:           30 * time.Second,
		Slots:               1,
		BeatInterval:        200 * time.Millisecond,
		CheckpointEvery:     8,
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
	case c.CompactBytes < 0:
		return errors.New("dist: Config.CompactBytes must be >= 0 (0 disables)")
	case c.StorageRetries < 0:
		return errors.New("dist: Config.StorageRetries must be >= 0")
	case c.HedgeFraction < 0 || c.HedgeFraction >= 1:
		return fmt.Errorf("dist: Config.HedgeFraction %g outside [0, 1)", c.HedgeFraction)
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
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = cfg.LeaseTTL / 2
	}
	co := &Coordinator{
		Listener: ln,
		system:   system,
		cfg:      cfg,
		leases:   newLeaseTable(cfg.LeaseTTL),
		sites:    make(siteTable),
		replay:   newJournalReplay(),
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
