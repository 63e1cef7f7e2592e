package dist_test

// The worker-storm chaos harness: a large in-process worker fleet
// (hundreds of goroutine workers over real loopback TCP) runs a
// campaign while a netsim blackhole severs every connection at once,
// then heals — the thundering-herd shape of a switch reboot or a
// coordinator failover. The overload layer must hold: no accepted job
// may be lost, the merged PMF must stay bit-identical to a local run,
// the reconnect herd must arrive jittered rather than in lockstep, and
// the coordinator must shed the whole episode without leaking
// goroutines.

import (
	"context"
	"encoding/json"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/md"
	"spice/internal/netsim"
	"spice/internal/trace"
)

// stormWorkers is the fleet size. Hundreds of workers on one machine
// is deliberately oversubscribed: the point is the poll/reconnect herd
// at the coordinator, not MD throughput.
const stormWorkers = 500

func stormSpec() campaign.Spec {
	return campaign.Spec{
		Kappas:     []float64{100, 1000},
		Velocities: []float64{800},
		Replicas:   8,
		Distance:   3,
		Seed:       31,
	}
}

func TestChaosWorkerStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a 500-worker fleet")
	}
	sysJSON := json.RawMessage(`{"beads":3}`)
	spec := stormSpec()
	baselineRunner := &campaign.LocalRunner{
		Build: func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			return core.BuildFromJSON(sysJSON, c, seed)
		},
		Workers: 1,
	}
	want, err := baselineRunner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	baselineGoroutines := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := dist.NewTestCoordinator(t, ln, sysJSON, func(c *dist.Config) {
		c.LeaseTTL = 2 * time.Second
		c.MaxInflight = 64
	})
	addr := ln.Addr().String()

	// Every worker dials through one gate; successful dial times are
	// recorded so the post-heal herd's spread can be asserted.
	gate := netsim.NewGate()
	var dialMu sync.Mutex
	var dialTimes []time.Time
	gatedDial := gate.Dial(nil)
	recordingDial := func(a string) (net.Conn, error) {
		c, err := gatedDial(a)
		if err == nil {
			dialMu.Lock()
			dialTimes = append(dialTimes, time.Now())
			dialMu.Unlock()
		}
		return c, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < stormWorkers; i++ {
		w := dist.NewTestWorker(t, workerName(i), "", addr, core.BuildFromJSON, func(c *dist.Config) {
			c.BeatInterval = 50 * time.Millisecond
			c.CheckpointEvery = 1
			c.Throttle = 5 * time.Millisecond
			c.ReconnectWindow = 60 * time.Second
			c.Dial = recordingDial
		})
		go w.Run(ctx)
	}

	done := make(chan struct{})
	var got map[campaign.Combo][]*trace.WorkLog
	var runErr error
	go func() {
		defer close(done)
		got, runErr = co.Run(spec)
	}()

	// Let the campaign get properly under way, then sever everything:
	// every live connection dies, every re-dial is refused for the
	// window, and on heal the whole fleet arrives back at once.
	deadline := time.Now().Add(120 * time.Second)
	for co.Stats().Assignments < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never got under way: %+v", co.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	healAt := time.Now().Add(300 * time.Millisecond)
	gate.Blackhole(300 * time.Millisecond)

	select {
	case <-done:
	case <-time.After(180 * time.Second):
		t.Fatalf("campaign wedged after the storm: %+v", co.Stats())
	}
	if runErr != nil {
		t.Fatal(runErr)
	}

	// No accepted job lost, nothing recomputed into difference: the
	// merged PMF inputs are bit-identical to the single-process run.
	requireBitIdenticalLogs(t, want, got)

	st := co.Stats()
	if st.Disconnects == 0 {
		t.Fatal("blackhole severed no connections — the storm never happened")
	}
	if st.InflightRequests < 0 {
		t.Fatalf("in-flight gauge went negative: %d", st.InflightRequests)
	}

	// The reconnect herd must not arrive in lockstep: the decorrelated
	// per-worker jitter has to spread the successful re-dials out. The
	// campaign often finishes before the whole herd is back (it only
	// needs a handful of leases), so give the stragglers — still
	// re-dialing against the live listener — a moment to land.
	var reconnects []time.Time
	deadline = time.Now().Add(30 * time.Second)
	for {
		dialMu.Lock()
		reconnects = reconnects[:0]
		for _, at := range dialTimes {
			if at.After(healAt) {
				reconnects = append(reconnects, at)
			}
		}
		dialMu.Unlock()
		if len(reconnects) >= stormWorkers/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d post-heal reconnects recorded", len(reconnects))
		}
		time.Sleep(25 * time.Millisecond)
	}
	sort.Slice(reconnects, func(i, j int) bool { return reconnects[i].Before(reconnects[j]) })
	spread := reconnects[len(reconnects)-1].Sub(reconnects[0])
	if spread < 50*time.Millisecond {
		t.Fatalf("reconnect herd landed within %v — retries are synchronized", spread)
	}
	buckets := make(map[int64]bool)
	for _, at := range reconnects {
		buckets[at.UnixNano()/int64(10*time.Millisecond)] = true
	}
	if len(buckets) < 8 {
		t.Fatalf("reconnects clumped into %d 10ms buckets, want >= 8", len(buckets))
	}

	// Tear the fleet down; the coordinator must drain every connection
	// goroutine — bounded memory means nothing lingers.
	cancel()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baselineGoroutines+50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after Close: baseline %d, now %d",
				baselineGoroutines, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func workerName(i int) string {
	const digits = "0123456789"
	return "storm-" + string([]byte{digits[i/100%10], digits[i/10%10], digits[i%10]})
}
