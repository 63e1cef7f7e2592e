package dist

// The coordinator's transport: one goroutine per worker connection that
// accepts the hello, decodes requests, stamps each with the clock,
// dispatches it and writes the reply — plus the parked work poll (a poll
// that found nothing runnable is held unanswered until work can exist)
// and the overload protection that lives at this layer (poll shedding,
// wait hints).

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"spice/internal/backoff"
	"spice/internal/netutil"
	"spice/internal/obs"
	"spice/internal/wire"
)

// connState tracks one worker connection.
type connState struct {
	// sess is the codec and the worker's name and site, written once at
	// hello (before any other request is processed).
	sess wire.Session
	// waits counts the hinted msgWait replies sent to this connection —
	// the jitter key that keeps a shed or quarantined herd from re-polling
	// in lockstep. Whoever is answering the connection's poll touches it:
	// its reader goroutine, or a wake pass while the reader is parked.
	waits int
	// parkedAt is when the connection's work poll was last parked, guarded
	// by Coordinator.mu; wake carries the one reply that ends a park to the
	// reader goroutine holding the poll.
	parkedAt time.Time
	wake     chan response
}

func newConnState() *connState {
	return &connState{wake: make(chan response, 1)}
}

// waitHint builds a msgWait reply for a poll the scheduler will not look
// at for a while — shed over the in-flight cap, or from a quarantined
// site; an idle poll is parked instead and never sees a hint. The delay
// carries deterministic per-(worker, poll) jitter in [0.5, 1) so a herd
// refused at the same instant comes back spread out. Lock-free.
func (co *Coordinator) waitHint(cs *connState, delay time.Duration) response {
	cs.waits++
	delay = time.Duration(float64(delay) * backoff.Frac(fmt.Sprintf("%s#%d", cs.sess.Name, cs.waits)))
	ms := int(delay / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return response{Type: msgWait, DelayMs: ms}
}

// shedNext answers a msgNext without ever touching the scheduler lock:
// the coordinator is over its in-flight request cap and this poll is
// load it can refuse.
func (co *Coordinator) shedNext(cs *connState) response {
	co.shed.Add(1)
	return co.waitHint(cs, co.cfg.LeaseTTL/4)
}

// parkBound is the longest a work poll is held unanswered: half a lease
// TTL, so a worker that died while parked is noticed (its fallback
// answer fails) well inside the window lease expiry works in, and half
// the I/O timeout, so the worker's read watchdog — armed when it sent
// the poll — never fires on a healthy park. It assumes the fleet shares
// one IOTimeout; a worker configured with a shorter one than twice this
// bound times out and re-dials on every idle poll.
func (co *Coordinator) parkBound() time.Duration {
	bound := co.cfg.LeaseTTL / 2
	if to := co.cfg.IOTimeout / 2; to > 0 && to < bound {
		bound = to
	}
	return bound
}

// awaitWake blocks the reader of a parked poll until a wake pass hands
// it the poll's reply or the park bound runs out, in which case the
// reply is an immediate re-poll: the liveness fallback. The reader does
// not read while it waits, so a peer that dies parked is found out at
// its wake or at the bound, not before.
func (co *Coordinator) awaitWake(cs *connState) response {
	bound := time.NewTimer(co.parkBound())
	defer bound.Stop()
	select {
	case resp := <-cs.wake:
		return resp
	case <-bound.C:
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.unparkLocked(cs, time.Now()) {
		return response{Type: msgWait, DelayMs: 1}
	}
	// A wake pass got to the poll between the timer and the lock; its
	// reply is already in the channel.
	return <-cs.wake
}

// serveConn handles one worker connection. hello must come first.
func (co *Coordinator) serveConn(conn net.Conn) {
	// Deadlines wrap outermost — a shim on the listener sits inside, as a
	// Dial shim does on the worker side.
	if to := co.cfg.IOTimeout; to > 0 {
		conn = netutil.WithDeadlines(conn, to, to)
	}
	cc := &countConn{Conn: conn, in: &co.bytesIn, out: &co.bytesOut}
	cs := newConnState()
	co.conns.Add(1)
	defer co.dropConn(cs)

	sess, err := wire.Accept(cc, cc, co.system)
	if err != nil {
		return
	}
	cs.sess = *sess
	co.wireV1.Add(1)
	co.cfg.Events.Emit(obs.Event{Name: "worker_connected", Site: cs.sess.Site, Worker: cs.sess.Name})

	// The reader writes each reply itself. The protocol is lock-step — a
	// worker sends its next request only after reading the last reply —
	// so at most one reply per connection is ever outstanding, and no
	// lock is held across the write. A peer that stops reading ties up
	// only this goroutine, until the IOTimeout write deadline fails the
	// write; then it is a disconnect like any dead link (dropConn).
	for {
		var req request
		if err := cs.sess.Decode(&req); err != nil {
			return
		}
		resp, answered := co.dispatch(cs, &req, time.Now())
		if !answered {
			resp = co.awaitWake(cs)
		}
		if cs.sess.Encode(&resp) != nil || resp.Type == msgDrained {
			return
		}
	}
}

// dispatch answers one decoded request; now is when it arrived, the one
// clock reading everything downstream shares. It never blocks: a work
// poll with nothing to run comes back unanswered — parked on co.parked,
// its reply due on cs.wake (awaitWake) — and so stops counting as in
// flight the moment dispatch returns; a thousand idle workers are not a
// thousand requests in processing.
func (co *Coordinator) dispatch(cs *connState, req *request, now time.Time) (resp response, answered bool) {
	n := co.inflight.Add(1)
	defer co.inflight.Add(-1)
	switch req.Type {
	case msgNext:
		co.polls.Add(1)
		if limit := int64(co.cfg.MaxInflight); limit > 0 && n > limit {
			// Over the in-flight cap: shed the poll. Results, fails and
			// heartbeats are never shed — they shrink the backlog.
			return co.shedNext(cs), true
		}
		return co.assign(cs, now)
	case msgBeat, msgProgress:
		return co.heartbeat(cs, req, now), true
	case msgResult:
		return co.finish(cs, req, now), true
	case msgFail:
		return co.fail(cs, req, now), true
	}
	return response{Type: msgOK, Err: fmt.Sprintf("dist: unknown message %q", req.Type)}, true
}

// countConn tallies the bytes crossing a connection into counters
// shared by every connection of the coordinator.
type countConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (cc *countConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.in.Add(int64(n))
	return n, err
}

func (cc *countConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.out.Add(int64(n))
	return n, err
}
