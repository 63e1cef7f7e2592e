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

	"spice/internal/backoff"
	"spice/internal/campaign"
	"spice/internal/md"
	"spice/internal/netutil"
	"spice/internal/obs"
	"spice/internal/smd"
	"spice/internal/trace"
	"spice/internal/wire"
)

// BuildFunc constructs the simulation for one job. The system payload
// is the opaque JSON the coordinator was configured with (typically a
// core.SystemConfig); decoding it is the caller's business, which keeps
// dist ignorant of the model layers above md.
type BuildFunc func(system json.RawMessage, c campaign.Combo, seed uint64) (*md.Engine, []int, error)

// errAbandoned aborts a pull whose lease the coordinator revoked.
var errAbandoned = errors.New("dist: lease abandoned")

// Worker executes jobs for a coordinator. Each of its Slots runs an
// independent connection: request a job, pull it with periodic
// checkpoint-carrying heartbeats, report the result, repeat until the
// coordinator drains. NewWorker is the only constructor.
type Worker struct {
	// Name identifies the worker in coordinator stats.
	Name string
	// Site is the federation site this worker belongs to (spiced -site).
	// The coordinator tracks health, runs circuit breakers, and places
	// speculative hedges at site granularity, so every worker on one
	// machine/cluster should share a Site. Never empty: NewWorker
	// defaults it to Name.
	Site string
	// Addr is the coordinator's TCP address.
	Addr string
	// Build constructs each job's simulation.
	Build BuildFunc
	// cfg is the validated Config this worker was built with — the only
	// copy of every knob.
	cfg Config

	// Execution counters, always maintained (atomic, negligible cost);
	// snapshot with WorkerStats, scrape via RegisterMetrics.
	m workerMetrics
	// md is set by RegisterMetrics; when set, every engine this worker
	// builds gets the sampled md-layer observers.
	md *EngineMetrics
}

// workerMetrics is the worker's always-on atomic counter set.
type workerMetrics struct {
	jobsStarted   atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsAbandoned atomic.Int64
	// checkpointsSent counts checkpoints actually put on the wire (the
	// newest-wins buffer may drop marshaled ones that were superseded
	// before a heartbeat fired); checkpointBytes counts the bytes that
	// traveled — post-compression, post-delta — while checkpointRawBytes
	// counts the serialized documents they reconstruct to. The ratio is
	// the wire win. checkpointDeltas counts how many went as deltas.
	checkpointsSent    atomic.Int64
	checkpointBytes    atomic.Int64
	checkpointRawBytes atomic.Int64
	checkpointDeltas   atomic.Int64
	steps              atomic.Int64
	reconnects         atomic.Int64
}

// WorkerStats snapshots the worker's execution counters.
func (w *Worker) WorkerStats() WorkerStats {
	return WorkerStats{
		JobsStarted:        w.m.jobsStarted.Load(),
		JobsDone:           w.m.jobsDone.Load(),
		JobsFailed:         w.m.jobsFailed.Load(),
		JobsAbandoned:      w.m.jobsAbandoned.Load(),
		CheckpointsSent:    w.m.checkpointsSent.Load(),
		CheckpointBytes:    w.m.checkpointBytes.Load(),
		CheckpointRawBytes: w.m.checkpointRawBytes.Load(),
		CheckpointDeltas:   w.m.checkpointDeltas.Load(),
		Steps:              w.m.steps.Load(),
		Reconnects:         w.m.reconnects.Load(),
	}
}

func (w *Worker) dial() (net.Conn, error) {
	var (
		c   net.Conn
		err error
	)
	if w.cfg.Dial != nil {
		c, err = w.cfg.Dial(w.Addr)
	} else {
		c, err = net.Dial("tcp", w.Addr)
	}
	if err != nil {
		return nil, err
	}
	// Deadlines wrap outermost — any Dial shim (netsim gates in tests)
	// sits inside, so injected latency counts against the watchdog
	// exactly like real network stalls would.
	if to := w.cfg.IOTimeout; to > 0 {
		c = netutil.WithDeadlines(c, to, to)
	}
	return c, nil
}

// Run works the coordinator's queue until it drains or ctx is
// cancelled. It returns nil on a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	errs := make([]error, w.cfg.Slots)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.runSession(ctx, fmt.Sprintf("%s/%d", w.Name, i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rtConn is one session's transport: a wire session that transparently
// re-dials and re-hellos after failures, for up to ReconnectWindow.
// Retrying a request across a reconnect may deliver it twice — once on
// the dying conn, once on the fresh one — which is exactly the
// duplicate-delivery case the coordinator's idempotency rules absorb.
type rtConn struct {
	w    *Worker
	name string
	bo   *backoff.Decorrelated // re-dial delays: decorrelated jitter, per-session seed

	conn      net.Conn
	stopWatch func() bool   // disarms the ctx watcher of the current conn
	sess      *wire.Session // the last hello's codec and the system payload it delivered; kept across drops

	failingSince time.Time // first failure of the current outage; zero when healthy
}

// sessionSeq salts each session's backoff seed so sessions sharing a
// name (common in tests and clone fleets) still jitter independently.
var sessionSeq atomic.Uint64

func newRTConn(w *Worker, name string) *rtConn {
	base := w.cfg.BeatInterval / 2
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	seed := backoff.Seed(name) + sessionSeq.Add(1)*0x9e3779b97f4a7c15
	return &rtConn{
		w:    w,
		name: name,
		bo:   backoff.Policy{Base: base, Max: w.cfg.ReconnectBackoffMax}.Decorrelated(seed),
	}
}

// connect dials and opens a wire session, installing a watcher that
// closes the conn when ctx is cancelled (unparking blocked I/O).
func (c *rtConn) connect(ctx context.Context) error {
	conn, err := c.w.dial()
	if err != nil {
		return fmt.Errorf("dist: dial %s: %w", c.w.Addr, err)
	}
	sess, err := wire.Open(conn, conn, c.name, c.w.Site)
	if err != nil {
		conn.Close()
		return fmt.Errorf("dist: hello: %w", err)
	}
	if c.sess != nil {
		c.w.m.reconnects.Add(1)
		c.w.cfg.Events.Emit(obs.Event{Name: "worker_reconnected", Worker: c.name, Site: c.w.Site})
	}
	c.conn, c.sess = conn, sess
	c.stopWatch = context.AfterFunc(ctx, func() { conn.Close() })
	c.failingSince = time.Time{}
	c.bo.Reset()
	return nil
}

// drop discards the current connection (if any).
func (c *rtConn) drop() {
	if c.conn == nil {
		return
	}
	c.stopWatch()
	c.conn.Close()
	c.conn = nil
}

// retry reports whether the transport should keep trying, sleeping the
// shared decorrelated-jitter backoff if so. Each session jitters on its
// own seed, so a fleet severed by one event re-dials spread out instead
// of in lockstep.
func (c *rtConn) retry(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	if c.failingSince.IsZero() {
		c.failingSince = time.Now()
	} else if time.Since(c.failingSince) > c.w.cfg.ReconnectWindow {
		return false
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(c.bo.Next()):
	}
	return true
}

// roundTrip sends one request and reads its reply, reconnecting and
// retransmitting within the worker's ReconnectWindow.
func (c *rtConn) roundTrip(ctx context.Context, req *request) (*response, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c.conn == nil {
			if err := c.connect(ctx); err != nil {
				// A refused hello is policy, not weather: re-dialing cannot fix it.
				if errors.Is(err, wire.ErrRefused) || !c.retry(ctx) {
					return nil, err
				}
				continue
			}
		}
		if err := c.sess.Encode(req); err != nil {
			c.drop()
			if !c.retry(ctx) {
				return nil, err
			}
			continue
		}
		var resp response
		if err := c.sess.Decode(&resp); err != nil {
			// The request may or may not have been applied; the retry
			// after reconnecting retransmits it and the coordinator
			// dedups by (job, attempt).
			c.drop()
			if !c.retry(ctx) {
				return nil, err
			}
			continue
		}
		return &resp, nil
	}
}

// runSession is one slot's lifetime: keep a transport alive, retransmit
// anything unacknowledged, and work the queue until drained.
func (w *Worker) runSession(ctx context.Context, name string) error {
	c := newRTConn(w, name)
	defer c.drop()
	// outbox holds result/fail lines the coordinator has not yet
	// acknowledged. Any reply (ok, even ok-with-err) acknowledges the
	// line — except retry, the coordinator's degraded-storage answer,
	// which keeps the line queued and backs off; transport errors keep
	// it queued across reconnects.
	var outbox []*request
	for ctx.Err() == nil {
		for len(outbox) > 0 {
			resp, err := c.roundTrip(ctx, outbox[0])
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("dist: reporting %s: %w", outbox[0].JobID, err)
			}
			if resp.Type == msgRetry {
				delay := time.Duration(resp.DelayMs) * time.Millisecond
				if delay <= 0 {
					delay = 50 * time.Millisecond
				}
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(delay):
				}
				continue
			}
			outbox = outbox[1:]
		}
		resp, err := c.roundTrip(ctx, &request{Type: msgNext})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("dist: next: %w", err)
		}
		switch resp.Type {
		case msgDrained:
			return nil
		case msgWait:
			delay := time.Duration(resp.DelayMs) * time.Millisecond
			if delay <= 0 {
				delay = 10 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(delay):
			}
		case msgAssign:
			if resp.Spec == nil {
				return errors.New("dist: assign without campaign spec")
			}
			unacked, err := w.runJob(ctx, *resp.Spec, c, resp)
			if unacked != nil {
				outbox = append(outbox, unacked)
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
		default:
			return fmt.Errorf("dist: unexpected reply %q to next", resp.Type)
		}
	}
	return nil
}

// runJob executes one assignment, heartbeating while the pull runs in a
// separate goroutine. The connection is only ever touched from this
// goroutine, preserving the strict one-request-one-response framing.
// The finished job's result (or fail) line is returned as unacked for
// the session's outbox rather than sent here, so a coordinator outage
// at the worst moment — result computed, ack never seen — is retried
// until some coordinator acknowledges it.
func (w *Worker) runJob(ctx context.Context, spec campaign.Spec, c *rtConn, assign *response) (unacked *request, _ error) {
	jb := assign.Job
	if jb == nil {
		return nil, errors.New("dist: assign without job")
	}
	task := campaign.Task{Combo: jb.Combo, Seed: jb.Seed, Index: jb.Index}
	system := json.RawMessage(c.sess.System)

	opts := smd.RunOpts{CheckpointEvery: w.cfg.CheckpointEvery}
	prevSteps := 0
	// ckptBase is the last checkpoint image the coordinator acknowledged
	// — the delta base. A resume image seeds it: the coordinator seeds
	// its side of the pair from the same spooled bytes on grant, so the
	// first progress after a resume can already travel as a delta.
	var ckptBase []byte
	resume, err := assign.Resume.Resolve(nil)
	if err == nil && len(resume) > 0 {
		var ck smd.PullCheckpoint
		if err = json.Unmarshal(resume, &ck); err == nil {
			opts.Resume = &ck
			prevSteps = ck.Steps
			ckptBase = resume
		}
	}
	if err != nil {
		// An image this worker cannot resume from fails the attempt, not
		// the session: report it and go back to polling.
		return &request{Type: msgFail, JobID: jb.ID, Attempt: jb.Attempt,
			Err: fmt.Sprintf("dist: decoding resume checkpoint: %v", err)}, nil
	}
	w.m.jobsStarted.Add(1)
	jobEvents := w.cfg.Events.Scope(obs.Event{Job: jb.ID, Attempt: jb.Attempt,
		Site: w.Site, Worker: w.Name})
	jobEvents.Emit(obs.Event{Name: "job_started",
		Fields: map[string]any{"resumed": opts.Resume != nil}})

	var abandoned atomic.Bool
	ckptCh := make(chan json.RawMessage, 1)
	opts.OnCheckpoint = func(pc *smd.PullCheckpoint) error {
		if abandoned.Load() || ctx.Err() != nil {
			return errAbandoned
		}
		if w.cfg.Throttle > 0 {
			time.Sleep(w.cfg.Throttle)
		}
		b, err := json.Marshal(pc)
		if err != nil {
			return err
		}
		if d := pc.Steps - prevSteps; d > 0 {
			// OnCheckpoint runs serially inside one pull, so plain reads
			// of prevSteps are safe; only the shared counters are atomic.
			w.m.steps.Add(int64(d))
			prevSteps = pc.Steps
		}
		// Keep only the newest checkpoint if the heartbeat loop is behind.
		for {
			select {
			case ckptCh <- b:
				return nil
			default:
				select {
				case <-ckptCh:
				default:
				}
			}
		}
	}

	type pullResult struct {
		log *trace.WorkLog
		err error
	}
	resCh := make(chan pullResult, 1)
	go func() {
		log, err := campaign.ExecutePull(spec, task, func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			eng, sel, err := w.Build(system, c, seed)
			if err == nil {
				w.md.Instrument(eng)
			}
			return eng, sel, err
		}, opts)
		resCh <- pullResult{log: log, err: err}
	}()

	beat := time.NewTicker(w.cfg.BeatInterval)
	defer beat.Stop()
	for {
		select {
		case res := <-resCh:
			if errors.Is(res.err, errAbandoned) {
				w.m.jobsAbandoned.Add(1)
				jobEvents.Emit(obs.Event{Name: "job_abandoned"})
				return nil, nil
			}
			req := &request{Type: msgResult, JobID: jb.ID, Attempt: jb.Attempt, Log: res.log}
			if res.err != nil {
				req = &request{Type: msgFail, JobID: jb.ID, Attempt: jb.Attempt, Err: res.err.Error()}
				w.m.jobsFailed.Add(1)
				jobEvents.Emit(obs.Event{Name: "job_failed", Fields: map[string]any{"error": res.err.Error()}})
			} else {
				w.m.jobsDone.Add(1)
				jobEvents.Emit(obs.Event{Name: "job_done"})
			}
			return req, nil
		case <-beat.C:
			req := &request{Type: msgBeat, JobID: jb.ID, Attempt: jb.Attempt}
			var raw []byte
			select {
			case b := <-ckptCh:
				raw = b
				req = &request{Type: msgProgress, JobID: jb.ID, Attempt: jb.Attempt,
					Ckpt: c.sess.Pack(ckptBase, b)}
			default:
			}
			// This round-trip rides out coordinator downtime internally
			// (re-dial + retransmit) while the pull keeps computing; a
			// restarted coordinator adopts the lease when the beat lands.
			resp, err := c.roundTrip(ctx, req)
			if err != nil {
				// Transport gone for good: stop the pull before
				// surfacing the error so the goroutine doesn't linger.
				abandoned.Store(true)
				<-resCh
				if ctx.Err() != nil {
					return nil, nil
				}
				return nil, fmt.Errorf("dist: heartbeat %s: %w", jb.ID, err)
			}
			// Advance the delta base only for a checkpoint that was cleanly
			// accepted. NeedFull means the coordinator lost our base
			// (restart, adoption, lost ack) or refused the image: the next
			// one goes full.
			if raw != nil {
				w.m.checkpointsSent.Add(1)
				w.m.checkpointRawBytes.Add(int64(len(raw)))
				w.m.checkpointBytes.Add(int64(req.Ckpt.WireLen()))
				if req.Ckpt.IsDelta() {
					w.m.checkpointDeltas.Add(1)
				}
				if resp.NeedFull {
					ckptBase = nil
				} else if resp.Type == msgOK && resp.Err == "" {
					ckptBase = raw
				}
			}
			if resp.Type == msgAbandon {
				abandoned.Store(true)
				<-resCh
				w.m.jobsAbandoned.Add(1)
				jobEvents.Emit(obs.Event{Name: "job_abandoned",
					Fields: map[string]any{"reason": "coordinator"}})
				return nil, nil
			}
		case <-ctx.Done():
			abandoned.Store(true)
			<-resCh
			return nil, nil
		}
	}
}
