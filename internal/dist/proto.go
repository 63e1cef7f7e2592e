// Package dist is a TCP coordinator/worker runtime that executes SMD-JE
// campaigns across OS processes — the working stand-in for the paper's
// federated grid execution (§III: jobs farmed out to whichever sites
// have free cycles, surviving node loss mid-campaign).
//
// The coordinator shards a campaign.Spec into its deterministic task
// list and hands tasks out under leases: a worker must heartbeat within
// the lease TTL or the job is revoked and requeued (with exponential
// backoff) for another worker. Workers stream periodic checkpoints back
// with their heartbeats, so a revoked or failed job resumes on its next
// worker from the last checkpoint rather than from scratch — and
// because engine checkpoints are bit-exact (RNG streams, neighbor-list
// reference positions, cached forces), the merged campaign output is
// bit-identical to a single-process campaign.LocalRunner run no matter
// how many workers ran it, in what order, or how many died.
//
// The transport — handshake, framing, payload forms — is internal/wire's;
// DESIGN.md §15 has the hello and fold invariants.
package dist

import (
	"spice/internal/wire"
)

// The message vocabulary lives in internal/wire (the codec layer owns
// the wire contract); dist keeps its historical short names as aliases.
const (
	msgNext     = wire.MsgNext
	msgBeat     = wire.MsgBeat
	msgProgress = wire.MsgProgress
	msgResult   = wire.MsgResult
	msgFail     = wire.MsgFail

	msgOK      = wire.MsgOK
	msgAssign  = wire.MsgAssign
	msgWait    = wire.MsgWait
	msgDrained = wire.MsgDrained
	msgAbandon = wire.MsgAbandon
	msgRetry   = wire.MsgRetry
)

type (
	request  = wire.Request
	response = wire.Response
	wireJob  = wire.Job
)
