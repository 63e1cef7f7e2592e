package dist

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/md"
	"spice/internal/obs"
)

// stubBuild satisfies BuildFunc for constructor tests that never run a job.
func stubBuild(json.RawMessage, campaign.Combo, uint64) (*md.Engine, []int, error) {
	panic("stubBuild must not run")
}

func TestDefaultsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults() must validate: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error
	}{
		{"zero lease TTL", func(c *Config) { c.LeaseTTL = 0 }, "LeaseTTL"},
		{"hedge fraction one", func(c *Config) { c.HedgeFraction = 1 }, "HedgeFraction"},
		{"negative hedge fraction", func(c *Config) { c.HedgeFraction = -0.1 }, "HedgeFraction"},
		{"negative io timeout", func(c *Config) { c.IOTimeout = -1 }, "IOTimeout"},
		{"zero slots", func(c *Config) { c.Slots = 0 }, "Slots"},
		{"zero beat", func(c *Config) { c.BeatInterval = 0 }, "BeatInterval"},
		{"beat at lease TTL", func(c *Config) { c.BeatInterval = c.LeaseTTL }, "BeatInterval"},
		{"zero checkpoint every", func(c *Config) { c.CheckpointEvery = 0 }, "CheckpointEvery"},
		{"negative throttle", func(c *Config) { c.Throttle = -time.Second }, "Throttle"},
		{"zero reconnect window", func(c *Config) { c.ReconnectWindow = 0 }, "ReconnectWindow"},
		{"zero reconnect backoff", func(c *Config) { c.ReconnectBackoffMax = 0 }, "ReconnectBackoffMax"},
	}
	for _, tc := range cases {
		cfg := Defaults()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %s", tc.name, err, tc.want)
		}
	}
}

// TestConfigZeroDisables checks the one convention where it shows: each
// optional subsystem set to 0 is observably off — not that some private
// field holds some value.
func TestConfigZeroDisables(t *testing.T) {
	t.Run("IOTimeout", func(t *testing.T) {
		// A shim on the coordinator's listener sits inside its deadline
		// wrapper, so it sees a read deadline armed for the hello exactly
		// when the coordinator has an IOTimeout.
		for _, tc := range []struct {
			timeout time.Duration
			raw     bool
		}{{0, true}, {time.Minute, false}} {
			var armed atomic.Bool
			co := newCoordinatorWrapped(t, func(conn net.Conn) net.Conn {
				return &deadlineSpy{Conn: conn, armed: &armed}
			}, func(c *Config) { c.IOTimeout = tc.timeout })
			dialTestClient(t, co.Listener.Addr().String(), "probe")
			if raw := !armed.Load(); raw != tc.raw {
				t.Fatalf("coordinator IOTimeout %v: serving without deadlines = %v, want %v", tc.timeout, raw, tc.raw)
			}

			ours, theirs := net.Pipe()
			defer theirs.Close()
			w := NewTestWorker(t, "w0", "", "pipe", stubBuild, func(c *Config) {
				c.IOTimeout = tc.timeout
				c.Dial = func(string) (net.Conn, error) { return ours, nil }
			})
			conn, err := w.dial()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			if raw := conn == ours; raw != tc.raw {
				t.Fatalf("worker IOTimeout %v: dial returned the raw conn = %v, want %v", tc.timeout, raw, tc.raw)
			}
		}
	})

	t.Run("SendQueue", func(t *testing.T) {
		// The send queue is gone and what SendQueue = 0 selected is the
		// only reply path: a peer that stops reading while it pipelines
		// three polls finds the reader parked inside the first reply's
		// write — it decodes nothing more, and drops nobody. The shim sits
		// inside the deadlines, so the release comes well within the
		// 200 ms write deadline the first reply arms at the end of its
		// 100 ms park.
		var blocked atomic.Bool
		release := make(chan struct{})
		co := newCoordinatorWrapped(t, func(conn net.Conn) net.Conn {
			return &blockWrites{Conn: conn, blocked: &blocked, release: release}
		}, func(c *Config) { c.IOTimeout = 200 * time.Millisecond })
		c := dialTestClient(t, co.Listener.Addr().String(), "probe")
		blocked.Store(true)
		for i := 0; i < 3; i++ {
			if err := c.Encode(&request{Type: msgNext}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for co.polls.Load() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // a synchronous reader must not get past the first poll
		if got := co.polls.Load(); got != 1 {
			t.Fatalf("reader decoded %d polls behind a blocked write, want 1", got)
		}
		close(release)
		for i := 0; i < 3; i++ {
			var resp response
			if err := c.Decode(&resp); err != nil || resp.Type != msgWait {
				t.Fatalf("reply %d = %+v (%v), want wait", i, resp, err)
			}
		}
		if st := co.Stats(); st.ConnectedWorkers != 1 || st.RequestsShed != 0 {
			t.Fatalf("after the blocked write recovered: %d connected, %d shed; want 1 and 0",
				st.ConnectedWorkers, st.RequestsShed)
		}
	})

	t.Run("MaxInflight", func(t *testing.T) {
		// Same drill as TestInflightShedOverLimit with the cap off: polls
		// pile up behind the held scheduler lock and none is shed.
		co := newCoordinator(t, func(c *Config) { c.MaxInflight = 0 })
		var clients []*testClient
		for _, name := range []string{"pa", "pb", "pc"} {
			clients = append(clients, dialTestClient(t, co.Listener.Addr().String(), name))
		}
		co.mu.Lock()
		for _, c := range clients {
			if err := c.Encode(&request{Type: msgNext}); err != nil {
				co.mu.Unlock()
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for co.inflight.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		parked, shed := co.inflight.Load(), co.shed.Load()
		co.mu.Unlock()
		if parked != 3 || shed != 0 {
			t.Fatalf("with shedding off: %d polls parked, %d shed; want 3 and 0", parked, shed)
		}
		for _, c := range clients {
			var resp response
			if err := c.Decode(&resp); err != nil || resp.Type != msgWait {
				t.Fatalf("parked poll answered %+v (%v), want wait", resp, err)
			}
		}
	})

	t.Run("CompactBytes", func(t *testing.T) {
		// TestCoordinatorCompactionBoundedLiveCampaign compacts this
		// journal at a 2 KiB threshold; at 0 it only ever grows.
		co := newCoordinator(t, func(c *Config) {
			c.StateDir = t.TempDir()
			c.CompactBytes = 0
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		startWorkers(t, ctx, co, 1, func(i int, c *Config) { c.CheckpointEvery = 1 })
		if _, err := co.Run(testSpec()); err != nil {
			t.Fatal(err)
		}
		if st := co.Stats(); st.Compactions != 0 || st.JournalBytes <= 2048 {
			t.Fatalf("compaction off: %d compactions, journal %d bytes; want 0 and > 2048", st.Compactions, st.JournalBytes)
		}
	})
}

// deadlineSpy is a listener shim that records whether the coordinator
// armed a read deadline on the connection it serves.
type deadlineSpy struct {
	net.Conn
	armed *atomic.Bool
}

func (d *deadlineSpy) SetReadDeadline(t time.Time) error {
	d.armed.Store(true)
	return d.Conn.SetReadDeadline(t)
}

// blockWrites is a listener shim that parks coordinator→worker writes
// while blocked is set, releasing them when release is closed — the
// deterministic stand-in for a worker whose receive path stopped
// draining while its send path still delivers requests.
type blockWrites struct {
	net.Conn
	blocked *atomic.Bool
	release chan struct{}
}

func (b *blockWrites) Write(p []byte) (int, error) {
	if b.blocked.Load() {
		<-b.release
	}
	return b.Conn.Write(p)
}

// TestDerivedWindowsPinned pins every window the runtime derives from a
// Config — the breaker cooldown, the hedge window resolved at
// construction, the janitor period, the park bound and the shed hint
// (jitter included: it is keyed by worker name and poll count) — to the
// values the pre-Config sentinel accessors computed from the same
// inputs.
func TestDerivedWindowsPinned(t *testing.T) {
	for _, tc := range []struct {
		name                                string
		override                            func(*Config)
		cooldown, hedgeAfter, janitor, park time.Duration
		shedMs                              int
	}{
		{"defaults", func(c *Config) { *c = Defaults() },
			10 * time.Second, 2500 * time.Millisecond, 1250 * time.Millisecond, 2500 * time.Millisecond, 843},
		{"rate hedging, short hedge-after and io-timeout", func(c *Config) {
			*c = Defaults()
			c.LeaseTTL, c.BeatInterval = 800*time.Millisecond, 50*time.Millisecond
			c.HedgeAfter = 120 * time.Millisecond
			c.IOTimeout = 500 * time.Millisecond
		}, 1600 * time.Millisecond, 120 * time.Millisecond, 60 * time.Millisecond, 250 * time.Millisecond, 135},
		{"no hedging, explicit hedge-after, no io-timeout", func(c *Config) {
			*c = Defaults()
			c.LeaseTTL = 12 * time.Second
			c.HedgeFraction, c.HedgeAfter = 0, 7*time.Second
			c.IOTimeout = 0
		}, 24 * time.Second, 7 * time.Second, 3 * time.Second, 6 * time.Second, 2025},
	} {
		co := newCoordinator(t, tc.override)
		if co.breakerCooldown() != tc.cooldown || co.cfg.HedgeAfter != tc.hedgeAfter {
			t.Errorf("%s: cooldown %v, hedge-after %v; want %v, %v", tc.name,
				co.breakerCooldown(), co.cfg.HedgeAfter, tc.cooldown, tc.hedgeAfter)
		}
		if got := co.janitorPeriod(); got != tc.janitor {
			t.Errorf("%s: janitor period %v, want %v", tc.name, got, tc.janitor)
		}
		if got := co.parkBound(); got != tc.park {
			t.Errorf("%s: park bound %v, want %v", tc.name, got, tc.park)
		}
		if got := co.shedNext(testConn("w", "")).DelayMs; got != tc.shedMs {
			t.Errorf("%s: shed hint %d ms, want %d", tc.name, got, tc.shedMs)
		}
	}
}

func TestNewCoordinatorRejects(t *testing.T) {
	if _, err := NewCoordinator(nil, nil, Defaults()); err == nil {
		t.Fatal("nil listener accepted")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	bad := Defaults()
	bad.LeaseTTL = 0
	if _, err := NewCoordinator(ln, nil, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestNewWorkerRejects(t *testing.T) {
	if _, err := NewWorker("w0", "", "", stubBuild, Defaults()); err == nil {
		t.Fatal("empty coordinator address accepted")
	}
	if _, err := NewWorker("w0", "", "127.0.0.1:1", nil, Defaults()); err == nil {
		t.Fatal("nil build function accepted")
	}
}

// TestNewWorkerWiresMetrics: the constructor must register the worker's
// collector, and the engines the worker builds later must feed the
// md-layer instruments it exports.
func TestNewWorkerWiresMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	co := newCoordinator(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, co, "w0", func(c *Config) { c.Metrics = reg })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `spice_worker_jobs_started_total{worker="w0"} 0`) {
		t.Fatalf("worker collector not registered; scrape:\n%s", sb.String())
	}
	if _, err := co.Run(testSpec()); err != nil {
		t.Fatal(err)
	}
	if got := scrapeValue(t, reg, "spice_md_step_seconds_count"); got < 1 {
		t.Fatalf("spice_md_step_seconds holds %v samples after a campaign on the worker", got)
	}
}

// TestRegisterMetricsHistograms: a coordinator built without
// Config.Metrics and registered afterwards exports its two latency
// histograms like one built with it.
func TestRegisterMetricsHistograms(t *testing.T) {
	co := newCoordinator(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, co, "w0", nil)
	reg := obs.NewRegistry()
	RegisterMetrics(reg, co)
	if _, err := co.Run(testSpec()); err != nil {
		t.Fatal(err)
	}
	if got := scrapeValue(t, reg, "spice_dist_first_lease_wait_seconds_count"); got != 1 {
		t.Fatalf("first-lease histogram holds %v observations after one campaign", got)
	}
	scrapeValue(t, reg, "spice_dist_poll_park_seconds_count")
}
