package wire

// The message vocabulary of the coordinator↔worker conversation. These
// structs used to live in internal/dist; they moved here so the codec
// layer owns the full wire contract — field set, JSON tags for the hello
// lines, and the binary field table for v1 — while dist aliases them
// under its historical names. The conversation is strictly
// request/response, worker-initiated: every worker message gets exactly
// one coordinator message back, so framing never needs message IDs.

import (
	"spice/internal/campaign"
	"spice/internal/trace"
)

// Message types.
const (
	// worker → coordinator
	MsgHello    = "hello"    // register + offer v1; reply carries the system payload
	MsgNext     = "next"     // request a job; reply assign/wait/drained
	MsgBeat     = "beat"     // lease heartbeat, no new checkpoint
	MsgProgress = "progress" // heartbeat carrying a fresh checkpoint
	MsgResult   = "result"   // job finished, log attached
	MsgFail     = "fail"     // job failed on this worker

	// coordinator → worker
	MsgOK      = "ok"      // ack; hello's ok carries the system payload
	MsgAssign  = "assign"  // here is a job (spec + maybe a resume checkpoint)
	MsgWait    = "wait"    // nothing runnable right now, retry in DelayMs
	MsgDrained = "drained" // coordinator is closing for good, disconnect
	MsgAbandon = "abandon" // lease was revoked; stop working on the job
	// MsgRetry answers a result the coordinator cannot durably record
	// right now (degraded storage): the worker keeps the line in its
	// outbox and retransmits after DelayMs. Unlike ok-with-err this is
	// NOT an acknowledgment — the result is neither merged nor dropped,
	// so a storage outage never turns into an acked-but-lost result.
	MsgRetry = "retry"
)

// Request is a worker → coordinator message.
type Request struct {
	Type string `json:"type"`
	Name string `json:"name,omitempty"` // hello: worker name
	// Site is the worker's site identity on hello (spiced -site) — the
	// grain at which the coordinator tracks health, runs circuit
	// breakers, and places speculative hedges (never on the site already
	// holding the lease). Empty falls back to the worker name, so every
	// unconfigured worker is its own one-machine site.
	Site  string `json:"site,omitempty"`
	JobID string `json:"jobId,omitempty"` // beat/progress/result/fail
	// Attempt echoes the lease attempt the worker was assigned, making
	// result/fail handling idempotent by (job, attempt): a line from a
	// lease the coordinator already retired is acked and dropped rather
	// than applied twice. 0 (old workers) is treated as a wildcard.
	Attempt int `json:"attempt,omitempty"`
	// Ckpt is the smd.PullCheckpoint on progress messages, compressed or
	// delta-encoded against the last acknowledged base. It stays opaque
	// to the coordinator's scheduler; only the payload layer folds it.
	Ckpt *Payload `json:"ckpt,omitempty"`
	// Log is the result payload. Go's encoding/json prints float64
	// values with enough digits to round-trip exactly, so shipping work
	// samples as JSON preserves bit-identity.
	Log *trace.WorkLog `json:"log,omitempty"`
	Err string         `json:"err,omitempty"` // fail reason

	// Wire, on the hello line only, is the newest protocol version the
	// worker speaks; absent (0) is refused. Opt-out keys older workers may
	// still send (noDelta, noComp) decode into nothing.
	Wire int `json:"wire,omitempty"`
}

// Response is a coordinator → worker message.
type Response struct {
	Type string `json:"type"`
	Job  *Job   `json:"job,omitempty"` // assign
	// Resume rides on assign: the latest folded checkpoint, always a
	// complete image (plain or compressed, never a delta — the new
	// lease holder has no base yet).
	Resume  *Payload `json:"resume,omitempty"`
	DelayMs int      `json:"delayMs,omitempty"` // wait
	// Spec rides on assign messages (campaigns change between jobs on a
	// long-lived coordinator); System rides on the grant line only.
	Spec   *campaign.Spec `json:"spec,omitempty"`
	System *Payload       `json:"system,omitempty"`
	Err    string         `json:"err,omitempty"`

	// Grant-line fields, never framed: the version (V1) and that delta
	// checkpoints and payload compression are on; every grant says so.
	Wire  int  `json:"wire,omitempty"`
	Delta bool `json:"delta,omitempty"`
	Comp  bool `json:"comp,omitempty"`
	// NeedFull on a progress ack tells the worker its delta was encoded
	// against a base this coordinator does not hold (restart, lost ack,
	// adoption): drop the base and send the next checkpoint complete.
	NeedFull bool `json:"needFull,omitempty"`
}

// Job identifies one pull assignment.
type Job struct {
	ID      string         `json:"id"`
	Combo   campaign.Combo `json:"combo"`
	Seed    uint64         `json:"seed"`
	Index   int            `json:"index"`
	Attempt int            `json:"attempt,omitempty"` // lease attempt to echo back
}
