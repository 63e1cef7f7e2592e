// Package netsim models the networks that connect SPICE's distributed
// components. The paper's central networking claim is that interactive MD
// needs high quality-of-service — low latency, jitter and packet loss — as
// provided by dedicated optical lightpaths (UKLight/GLIF), because on a
// general-purpose network the synchronous, bi-directional simulation ↔
// visualizer exchange stalls the simulation.
//
// Two complementary facilities are provided:
//
//   - Profile.SampleDelay: a discrete-event delay model (propagation +
//     jitter + serialization + loss-retransmission penalties) used by the
//     campaign and QoS benches without any real sleeping;
//   - Shim: a net.Conn wrapper that imposes (scaled-down) profile delays
//     on real loopback sockets, used by the IMD integration tests and the
//     interactive example.
package netsim

import (
	"math"
	"net"
	"sync"
	"time"

	"spice/internal/xrand"
)

// Profile characterizes one network path.
type Profile struct {
	Name string
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter is the standard deviation of the queueing-delay component
	// (half-normal, added to Latency).
	Jitter time.Duration
	// Loss is the packet loss probability per message. For the
	// TCP-like flows SPICE uses, each loss costs a retransmission
	// timeout rather than a dropped message.
	Loss float64
	// RTO is the retransmission timeout paid per lost packet.
	RTO time.Duration
	// BandwidthMbps bounds throughput; 0 = unbounded.
	BandwidthMbps float64
}

// The paper's network tiers. Propagation reflects the trans-Atlantic
// UCL ↔ TeraGrid path (~40 ms one way); what distinguishes the tiers is
// jitter and loss, not distance.
var (
	// Lightpath is a dedicated optical path (UKLight/GLIF): fixed
	// latency, negligible jitter, no loss, 10 Gb/s.
	Lightpath = Profile{Name: "lightpath", Latency: 40 * time.Millisecond, Jitter: 50 * time.Microsecond, Loss: 0, RTO: 200 * time.Millisecond, BandwidthMbps: 10000}
	// LAN is a local visualization engine co-located with the compute.
	LAN = Profile{Name: "lan", Latency: 200 * time.Microsecond, Jitter: 50 * time.Microsecond, Loss: 0, RTO: 200 * time.Millisecond, BandwidthMbps: 1000}
	// SharedWAN is the production internet between the same endpoints.
	SharedWAN = Profile{Name: "shared-wan", Latency: 45 * time.Millisecond, Jitter: 8 * time.Millisecond, Loss: 0.001, RTO: 200 * time.Millisecond, BandwidthMbps: 100}
	// Congested is the same path under cross-traffic.
	Congested = Profile{Name: "congested", Latency: 60 * time.Millisecond, Jitter: 25 * time.Millisecond, Loss: 0.01, RTO: 200 * time.Millisecond, BandwidthMbps: 20}
)

// Profiles lists the standard tiers, best first.
func Profiles() []Profile { return []Profile{LAN, Lightpath, SharedWAN, Congested} }

// SampleDelay draws the one-way delivery delay for a message of size
// bytes. It is deterministic given the rng stream.
func (p Profile) SampleDelay(rng *xrand.Source, bytes int) time.Duration {
	d := p.Latency
	if p.Jitter > 0 {
		j := rng.NormFloat64()
		if j < 0 {
			j = -j
		}
		d += time.Duration(j * float64(p.Jitter))
	}
	if p.BandwidthMbps > 0 && bytes > 0 {
		// serialization: bytes*8 bits / (Mbps * 1e6) seconds
		sec := float64(bytes) * 8 / (p.BandwidthMbps * 1e6)
		d += time.Duration(sec * float64(time.Second))
	}
	// Each lost transmission costs one RTO before the retry succeeds.
	for p.Loss > 0 && rng.Float64() < p.Loss {
		d += p.RTO
	}
	return d
}

// MeanDelay estimates the expected one-way delay for a message size by
// Monte Carlo (n samples).
func (p Profile) MeanDelay(rng *xrand.Source, bytes, n int) time.Duration {
	if n <= 0 {
		n = 1000
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		total += p.SampleDelay(rng, bytes)
	}
	return total / time.Duration(n)
}

// Shim wraps a net.Conn, delaying every Write by the profile's sampled
// one-way delay multiplied by Scale (use Scale << 1 in tests to keep
// wall-clock time down while preserving delay ratios between profiles).
type Shim struct {
	net.Conn
	Profile Profile
	Scale   float64

	mu  sync.Mutex
	rng *xrand.Source
}

// NewShim wraps conn with QoS behaviour. Scale 0 defaults to 1.
func NewShim(conn net.Conn, p Profile, scale float64, seed uint64) *Shim {
	if scale == 0 {
		scale = 1
	}
	return &Shim{Conn: conn, Profile: p, Scale: scale, rng: xrand.New(seed)}
}

// Write implements net.Conn with injected delay. The delay is paid by the
// sender, which serializes the path like a single in-order TCP stream.
func (s *Shim) Write(b []byte) (int, error) {
	s.mu.Lock()
	d := s.Profile.SampleDelay(s.rng, len(b))
	s.mu.Unlock()
	if s.Scale > 0 && d > 0 {
		time.Sleep(time.Duration(float64(d) * s.Scale))
	}
	return s.Conn.Write(b)
}

// Pipe returns the two ends of an in-memory duplex connection with the
// profile applied independently in each direction.
func Pipe(p Profile, scale float64, seed uint64) (client, server net.Conn) {
	c, s := net.Pipe()
	return NewShim(c, p, scale, seed), NewShim(s, p, scale, seed+1)
}

// TCPThroughputMbps estimates the sustainable TCP throughput of the path
// using the Mathis relation T = MSS/(RTT·sqrt(p)) for loss probability
// p > 0, capped by the path bandwidth. For loss-free paths the link
// bandwidth is returned. This is the high-bandwidth-delay-product effect
// that made 2005-era trans-Atlantic TCP transfers collapse on shared
// networks while lightpaths sustained line rate.
func (p Profile) TCPThroughputMbps(mssBytes int) float64 {
	if mssBytes <= 0 {
		mssBytes = 1460
	}
	if p.Loss <= 0 {
		return p.BandwidthMbps
	}
	rtt := 2 * p.Latency.Seconds()
	if rtt <= 0 {
		return p.BandwidthMbps
	}
	mathis := float64(mssBytes) * 8 / (rtt * math.Sqrt(p.Loss)) / 1e6
	if p.BandwidthMbps > 0 && mathis > p.BandwidthMbps {
		return p.BandwidthMbps
	}
	return mathis
}
