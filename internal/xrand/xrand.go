// Package xrand implements the deterministic, splittable random number
// generation used across SPICE.
//
// Reproducibility across a distributed campaign is essential: each of the
// paper's 72 production simulations must be independently seedable so a
// re-run on a different set of grid resources produces identical
// trajectories. xrand provides a xoshiro256** generator seeded through
// SplitMix64, a Split method deriving statistically independent streams,
// and Gaussian variates for the Langevin thermostat.
//
// The generator is NOT safe for concurrent use; each worker goroutine must
// own its own stream (use Split).
package xrand

import (
	"fmt"
	"math"
)

// Source is a xoshiro256** pseudo-random generator.
type Source struct {
	s [4]uint64
	// cached spare Gaussian deviate
	hasSpare bool
	spare    float64
}

// splitmix64 advances x and returns a well-mixed 64-bit value. It is the
// recommended seeding procedure for xoshiro generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets the generator state from seed.
func (s *Source) Seed(seed uint64) {
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro requires a nonzero state; splitmix64 of anything yields
	// at least one nonzero word with overwhelming probability, but be
	// exact about it.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	s.hasSpare = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// the receiver's. The child is seeded from fresh output of the parent
// passed through SplitMix64, so parent and child never share state.
func (s *Source) Split() *Source {
	x := s.Uint64()
	child := New(splitmix64(&x))
	return child
}

// SnapshotLen is the number of words in a Source snapshot.
const SnapshotLen = 6

// Snapshot returns the complete generator state — the four xoshiro words
// plus the cached Gaussian spare — so a checkpointed simulation can resume
// bit-exactly. The layout is stable: [s0 s1 s2 s3 hasSpare spareBits].
func (s *Source) Snapshot() []uint64 {
	out := make([]uint64, SnapshotLen)
	copy(out, s.s[:])
	if s.hasSpare {
		out[4] = 1
	}
	out[5] = math.Float64bits(s.spare)
	return out
}

// RestoreSnapshot loads a state produced by Snapshot.
func (s *Source) RestoreSnapshot(w []uint64) error {
	if len(w) != SnapshotLen {
		return fmt.Errorf("xrand: snapshot has %d words, want %d", len(w), SnapshotLen)
	}
	if w[0]|w[1]|w[2]|w[3] == 0 {
		return fmt.Errorf("xrand: snapshot has all-zero stream state")
	}
	copy(s.s[:], w[:4])
	s.hasSpare = w[4] != 0
	s.spare = math.Float64frombits(w[5])
	return nil
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire-style rejection-free-ish bounded generation with a single
	// correction loop to remove modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		r := s.Uint64()
		if r >= threshold {
			return int(r % bound)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal deviate (mean 0, stddev 1) using
// the Marsaglia polar method with a cached spare. The spare path is small
// enough to inline; the polar draw is out of line in normPair.
func (s *Source) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	return s.normPair()
}

// normPair draws a pair of normal deviates, returns one and caches the
// other as the spare.
func (s *Source) normPair() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}

// Gamma returns a Gamma(shape k, scale θ=1) deviate using the
// Marsaglia–Tsang method; used by the grid workload generators.
func (s *Source) Gamma(k float64) float64 {
	if k < 1 {
		// Boost: Gamma(k) = Gamma(k+1) · U^{1/k}
		return s.Gamma(k+1) * math.Pow(s.Float64()+1e-300, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
