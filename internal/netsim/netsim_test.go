package netsim

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"spice/internal/xrand"
)

func TestSampleDelayNonNegativeAndAtLeastLatency(t *testing.T) {
	rng := xrand.New(1)
	for _, p := range Profiles() {
		for i := 0; i < 1000; i++ {
			d := p.SampleDelay(rng, 1000)
			if d < p.Latency {
				t.Fatalf("%s: delay %v below latency %v", p.Name, d, p.Latency)
			}
		}
	}
}

func TestProfileOrdering(t *testing.T) {
	// Mean delay must rank LAN < Lightpath < SharedWAN < Congested for a
	// typical steering message.
	rng := xrand.New(2)
	var prev time.Duration
	for i, p := range Profiles() {
		m := p.MeanDelay(rng, 4096, 3000)
		if i > 0 && m <= prev {
			t.Fatalf("profile %s mean delay %v not worse than previous %v", p.Name, m, prev)
		}
		prev = m
	}
}

func TestJitterSpreadsDelays(t *testing.T) {
	rng := xrand.New(3)
	spread := func(p Profile) time.Duration {
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i := 0; i < 2000; i++ {
			d := p.SampleDelay(rng, 100)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return hi - lo
	}
	if spread(Congested) <= spread(Lightpath) {
		t.Fatal("congested spread should exceed lightpath spread")
	}
}

func TestLossAddsRTOPenalties(t *testing.T) {
	rng := xrand.New(4)
	lossy := Profile{Name: "lossy", Latency: time.Millisecond, Loss: 0.5, RTO: 100 * time.Millisecond}
	clean := Profile{Name: "clean", Latency: time.Millisecond}
	// Expected penalty: p/(1-p)·RTO = 100 ms.
	ml := lossy.MeanDelay(rng, 100, 5000)
	mc := clean.MeanDelay(rng, 100, 5000)
	penalty := ml - mc
	if penalty < 80*time.Millisecond || penalty > 120*time.Millisecond {
		t.Fatalf("loss penalty = %v, want ~100ms", penalty)
	}
}

func TestSerializationDelay(t *testing.T) {
	rng := xrand.New(5)
	p := Profile{Name: "slow", Latency: 0, BandwidthMbps: 8} // 1 byte/µs
	d := p.SampleDelay(rng, 1000000)                         // 1 MB -> 1 s
	if d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Fatalf("serialization of 1MB at 8Mbps = %v, want ~1s", d)
	}
	// Zero-size messages pay no serialization.
	if d := p.SampleDelay(rng, 0); d != 0 {
		t.Fatalf("empty message delay = %v", d)
	}
}

func TestSampleDelayDeterministic(t *testing.T) {
	a, b := xrand.New(6), xrand.New(6)
	for i := 0; i < 100; i++ {
		if Congested.SampleDelay(a, 512) != Congested.SampleDelay(b, 512) {
			t.Fatal("delay sampling not deterministic")
		}
	}
}

func TestShimDelaysWrites(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	// 10 ms fixed latency at full scale.
	shim := NewShim(c, Profile{Latency: 10 * time.Millisecond}, 1, 1)
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 5)
		if _, err := io.ReadFull(s, buf); err != nil {
			done <- nil
			return
		}
		done <- buf
	}()
	t0 := time.Now()
	if _, err := shim.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := <-done
	elapsed := time.Since(t0)
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("payload corrupted: %q", got)
	}
	if elapsed < 9*time.Millisecond {
		t.Fatalf("write returned in %v, expected >= 10ms delay", elapsed)
	}
}

func TestShimScale(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	// 100 ms latency at scale 0.01 → ~1 ms.
	shim := NewShim(c, Profile{Latency: 100 * time.Millisecond}, 0.01, 2)
	go func() {
		buf := make([]byte, 1)
		_, _ = io.ReadFull(s, buf)
	}()
	t0 := time.Now()
	if _, err := shim.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 50*time.Millisecond {
		t.Fatalf("scaled write took %v, scale not applied", elapsed)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	client, server := Pipe(Profile{Latency: time.Millisecond}, 1, 3)
	defer client.Close()
	defer server.Close()
	go func() {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(server, buf); err == nil {
			_, _ = server.Write(buf)
		}
	}()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestTCPThroughputMathis(t *testing.T) {
	// Loss-free paths run at line rate.
	if got := Lightpath.TCPThroughputMbps(1460); got != Lightpath.BandwidthMbps {
		t.Fatalf("lightpath TCP throughput = %v", got)
	}
	// Congested trans-Atlantic path: MSS 1460B, RTT 120 ms, p=1%:
	// 1460·8/(0.12·0.1)/1e6 ≈ 0.97 Mb/s — collapse well below the
	// 20 Mb/s link rate.
	got := Congested.TCPThroughputMbps(1460)
	if got < 0.5 || got > 2 {
		t.Fatalf("congested Mathis throughput = %v Mb/s, want ~1", got)
	}
	if got >= Congested.BandwidthMbps {
		t.Fatal("loss should collapse throughput below line rate")
	}
	// Shared WAN sits between.
	mid := SharedWAN.TCPThroughputMbps(1460)
	if mid <= got {
		t.Fatalf("shared WAN (%v) should beat congested (%v)", mid, got)
	}
	// Default MSS and degenerate RTT.
	if Congested.TCPThroughputMbps(0) != got {
		t.Fatal("default MSS mismatch")
	}
	zero := Profile{Loss: 0.01}
	if zero.TCPThroughputMbps(1460) != 0 {
		t.Fatal("zero-latency lossy profile should fall back to bandwidth")
	}
}
