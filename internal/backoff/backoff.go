// Package backoff is the single retry-delay implementation shared by
// every reconnect/retry loop in the repo: the coordinator's per-job
// retry schedule, the journal repair loop, the worker reconnect
// transport, and the control-plane HTTP client. Keeping one
// implementation means a fleet under stress backs off with one set of
// well-understood semantics instead of three hand-rolled ones.
//
// Three delay shapes are provided:
//
//   - Policy.Exp: pure capped exponential growth (deterministic — used
//     where the caller holds a lock and the schedule must be replayable,
//     e.g. journal repair).
//   - Policy.Keyed: exponential growth scaled by a deterministic FNV
//     jitter fraction in [0.5, 1). The same key and attempt always yield
//     the same delay, so journal replay reproduces the exact schedule.
//   - Policy.Decorrelated: AWS-style decorrelated jitter — each delay is
//     uniform in [Base, 3·prev), capped at Max. Used by reconnect loops
//     where the goal is to spread a thundering herd, not to be
//     replayable.
package backoff

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Policy bounds a retry-delay schedule: delays start at Base and never
// exceed Max. The zero value is unusable; both fields must be positive.
type Policy struct {
	Base time.Duration
	Max  time.Duration
}

// Exp returns the delay before the attempt-th try (attempt >= 1):
// Base·2^(attempt-1), capped at Max. attempt <= 1 returns Base.
func (p Policy) Exp(attempt int) time.Duration {
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.Max {
			return p.Max
		}
	}
	if d > p.Max {
		d = p.Max
	}
	return d
}

// Frac returns a deterministic jitter fraction in [0.5, 1) keyed by an
// arbitrary string: the FNV-64a hash of the key selects one of 4096
// evenly spaced fractions. The same key always yields the same
// fraction, so schedules built from Frac are stable across restarts and
// journal replays while still spreading distinct keys apart.
func Frac(key string) float64 {
	h := fnv.New64a()
	fmt.Fprint(h, key)
	return 0.5 + 0.5*float64(h.Sum64()&0xfff)/4096
}

// Keyed returns Exp(attempt) scaled by the deterministic jitter
// fraction Frac("key#attempt"). Two jobs retrying the same attempt
// number get different delays; the same (key, attempt) pair always gets
// the same delay.
func (p Policy) Keyed(key string, attempt int) time.Duration {
	d := p.Exp(attempt)
	return time.Duration(float64(d) * Frac(fmt.Sprintf("%s#%d", key, attempt)))
}

// Decorrelated is one retry sequence's mutable state using decorrelated
// jitter: each Next is uniform in [Base, 3·prev), capped at Max. It is
// not safe for concurrent use; each retry loop owns its own instance.
type Decorrelated struct {
	policy Policy
	prev   time.Duration
	rng    *rand.Rand
}

// Decorrelated builds a sequence seeded deterministically: the same
// seed replays the same delays (useful in tests), while distinct seeds
// — e.g. Seed(workerName) — de-synchronize a fleet that fails at the
// same instant.
func (p Policy) Decorrelated(seed uint64) *Decorrelated {
	return &Decorrelated{policy: p, rng: rand.New(rand.NewSource(int64(seed)))}
}

// Seed hashes an arbitrary name into a Decorrelated seed.
func Seed(name string) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, name)
	return h.Sum64()
}

// Next returns the next delay in the sequence.
func (d *Decorrelated) Next() time.Duration {
	if d.prev <= 0 {
		d.prev = d.policy.Base
	}
	lo := d.policy.Base
	if lo <= 0 {
		lo = time.Millisecond
	}
	hi := 3 * d.prev
	if hi <= lo {
		hi = lo + 1
	}
	n := lo + time.Duration(d.rng.Int63n(int64(hi-lo)))
	if max := d.policy.Max; max > 0 && n > max {
		n = max
	}
	d.prev = n
	return n
}

// Reset restarts the sequence (call after a successful attempt).
func (d *Decorrelated) Reset() { d.prev = 0 }
