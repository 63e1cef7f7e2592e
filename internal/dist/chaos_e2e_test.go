package dist_test

// The chaos end-to-end test: a spiced -serve -state process holds the
// campaigns of a full priming sweep, submitted over its HTTP API, and
// leases them to two live in-test workers. It gets SIGKILLed
// mid-campaign, and an in-process coordinator restarted over the same
// state directory finishes the sweep. While it recovers, one worker is
// network-partitioned (netsim.Gate) and the other has a result ack cut
// off so its outbox retransmits an already-delivered result. The final
// PMF must be bit-identical to a single-process run, no spooled job may
// restart from step 0, and the duplicate delivery must be dropped.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/md"
	"spice/internal/netsim"
	"spice/internal/obs"
	"spice/internal/trace"
)

// chaosSweepConfig is the pipeline the local baseline and the restarted
// coordinator run; its campaign specs are what spiced is given — the
// spec JSON doubles as the journal's replay key, so it must match byte
// for byte.
func chaosSweepConfig() core.SweepConfig {
	cfg := core.PaperSweep()
	cfg.System.Beads = 3
	cfg.Kappas = []float64{100, 1000}
	cfg.Velocities = []float64{800}
	cfg.Replicas = 2
	cfg.Distance = 3
	cfg.Seed = 31
	return cfg
}

// recordingRunner runs campaigns in process and keeps their specs, in
// the order the pipeline asked for them.
type recordingRunner struct {
	campaign.LocalRunner
	specs []campaign.Spec
}

func (r *recordingRunner) Run(spec campaign.Spec) (map[campaign.Combo][]*trace.WorkLog, error) {
	r.specs = append(r.specs, spec)
	return r.LocalRunner.Run(spec)
}

// heldRunner answers each campaign the pipeline asks for from the
// install that took it back after the restart, keyed by spec JSON.
type heldRunner map[string]*dist.Installed

func (h heldRunner) Run(spec campaign.Spec) (map[campaign.Combo][]*trace.WorkLog, error) {
	key, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	in := h[string(key)]
	if in == nil {
		return nil, fmt.Errorf("campaign %s was not held", key)
	}
	return in.Wait()
}

// holdListener defers every Accept until open is called; dials meanwhile
// wait in the kernel's backlog.
type holdListener struct {
	net.Listener
	release chan struct{}
	once    sync.Once
}

func (l *holdListener) open() { l.once.Do(func() { close(l.release) }) }

func (l *holdListener) Accept() (net.Conn, error) {
	<-l.release
	return l.Listener.Accept()
}

// freeAddr returns a loopback address nothing listens on, so a process
// restarted on it can rebind the address its peers keep dialing.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// spoolIDs lists job IDs with a spooled checkpoint under stateDir.
func spoolIDs(t *testing.T, stateDir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(stateDir, "spool", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(matches))
	for _, m := range matches {
		ids = append(ids, strings.TrimSuffix(filepath.Base(m), ".ckpt"))
	}
	return ids
}

// journalDoneJobs reads the (possibly still-growing) journal and
// returns the IDs with a durable done record.
func journalDoneJobs(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	scan, err := trace.ScanRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("journal unreadable: %v", err)
	}
	done := make(map[string]bool)
	for _, rec := range scan.Records {
		var r struct {
			T   string `json:"t"`
			Job string `json:"job"`
		}
		if json.Unmarshal(rec, &r) == nil && r.T == "done" {
			done[r.Job] = true
		}
	}
	return done
}

// dupConn injects a duplicate result delivery: while armed, after a
// result frame is written it waits for the coordinator's ack — proof
// the result was applied — swallows it, and kills the connection. The
// worker never sees the ack, so its outbox retransmits a result the
// coordinator has already merged. (Closing before the ack arrives
// would risk an RST discarding the un-read result on the coordinator
// side, making the retransmit a first delivery instead of a
// duplicate.) Exactly one duplicate is injected per arming.
type dupConn struct {
	net.Conn
	armed   *atomic.Bool
	swallow bool // set by Write, consumed by Read; same goroutine
}

// isResultFrame reports whether a worker write starts a v1 result
// frame: [stream magic, first frame only][u32 length][u32 crc]
// [kind 1 = request][uvarint field bitmap][uvarint type code 5 =
// result]. A codec flushes each message from an empty buffer, so every
// frame starts a write; the hello line never matches.
func isResultFrame(p []byte) bool {
	p = bytes.TrimPrefix(p, []byte("SPJNL1"))
	if len(p) < 10 || p[8] != 1 {
		return false
	}
	_, n := binary.Uvarint(p[9:])
	if n <= 0 {
		return false
	}
	code, m := binary.Uvarint(p[9+n:])
	return m > 0 && code == 5
}

func (d *dupConn) Write(p []byte) (int, error) {
	n, err := d.Conn.Write(p)
	if err == nil && isResultFrame(p) && d.armed.CompareAndSwap(true, false) {
		d.swallow = true
	}
	return n, err
}

func (d *dupConn) Read(p []byte) (int, error) {
	if d.swallow {
		n, err := d.Conn.Read(p)
		if err == nil && n > 0 {
			d.swallow = false
			d.Conn.Close()
			return 0, errors.New("chaos: result ack swallowed")
		}
		return n, err
	}
	return d.Conn.Read(p)
}

func TestChaosCoordinatorKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the spice binary and kills processes")
	}
	cfg := chaosSweepConfig()
	sysJSON, err := json.Marshal(cfg.System)
	if err != nil {
		t.Fatal(err)
	}

	// Single-process baseline of the full sweep, which also records the
	// campaigns the pipeline runs.
	local := &recordingRunner{LocalRunner: campaign.LocalRunner{
		Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			return cfg.System.Build(seed)
		},
		Workers: 1,
	}}
	localCfg := cfg
	localCfg.Runner = local
	want, err := core.RunSweep(localCfg)
	if err != nil {
		t.Fatal(err)
	}

	bin := buildSpiced(t)
	addr, httpAddr := freeAddr(t), freeAddr(t)
	stateDir := t.TempDir()
	logPath := filepath.Join(t.TempDir(), "spiced.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(bin,
		"-serve",
		"-listen", addr,
		"-http", httpAddr,
		"-state", stateDir,
		"-workers", "0",
		"-system", string(sysJSON),
	)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	// The sweep's campaigns are submitted once /readyz says spiced's
	// replay is done.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get("http://" + httpAddr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			out, _ := os.ReadFile(logPath)
			t.Fatalf("spiced -serve never became ready; output:\n%s", out)
		}
	}
	cl := &controlplane.Client{Base: httpAddr}
	for _, spec := range local.specs {
		if _, err := cl.Submit(context.Background(), spec, dist.CampaignTag{}); err != nil {
			t.Fatal(err)
		}
	}

	// Two live workers that outlive the coordinator. Both are slow
	// enough (checkpoint every sample, throttled) to be mid-job when the
	// kill lands, and a pull outlasts many beats: one that ended within a
	// beat of the kill would report its result with no beat first, and
	// so never be adopted. One dials through a partition gate, the other
	// through the duplicate injector.
	gate := netsim.NewGate()
	var armDup atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startChaosWorker := func(name string, dial func(string) (net.Conn, error)) {
		w := dist.NewTestWorker(t, name, "", addr, core.BuildFromJSON, func(c *dist.Config) {
			c.BeatInterval = 20 * time.Millisecond
			c.CheckpointEvery = 1
			c.Throttle = 60 * time.Millisecond
			c.ReconnectWindow = 60 * time.Second
			c.Dial = dial
		})
		go w.Run(ctx)
	}
	startChaosWorker("gated", gate.Dial(nil))
	startChaosWorker("duplicator", func(a string) (net.Conn, error) {
		c, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		return &dupConn{Conn: c, armed: &armDup}, nil
	})

	// Kill point: both workers mid-job with spooled checkpoints AND at
	// least one job durably completed, so the recovery exercises both
	// the restored-result and the resumed-checkpoint paths.
	journalPath := filepath.Join(stateDir, "journal.log")
	deadline := time.Now().Add(120 * time.Second)
	for {
		done := journalDoneJobs(t, journalPath)
		inFlight := 0
		for _, id := range spoolIDs(t, stateDir) {
			if !done[id] {
				inFlight++
			}
		}
		if inFlight >= 2 && len(done) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			out, _ := os.ReadFile(logPath)
			t.Fatalf("campaign never reached the kill point; spiced output:\n%s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGKILL: no drain, no journal close, no goodbyes.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	doneAtKill := journalDoneJobs(t, journalPath)
	var spooledAtKill []string
	for _, id := range spoolIDs(t, stateDir) {
		if !doneAtKill[id] {
			spooledAtKill = append(spooledAtKill, id)
		}
	}
	if len(spooledAtKill) == 0 {
		t.Fatal("no in-flight spooled jobs at kill time")
	}

	// Partition one worker across the restart window (it heals and
	// rejoins mid-campaign) and arm the duplicate injection on the other.
	gate.Blackhole(600 * time.Millisecond)
	armDup.Store(true)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hold := &holdListener{Listener: ln, release: make(chan struct{})}
	events := obs.NewEventLog(nil, 1<<12)
	co := dist.NewTestCoordinator(t, hold, sysJSON, func(c *dist.Config) {
		c.LeaseTTL = 2 * time.Second
		c.StateDir = stateDir
		c.Events = events
	})
	t.Cleanup(func() { _ = co.Close() })
	t.Cleanup(hold.open) // runs first: Close must not wait on a held Accept
	// Every held campaign goes back on the coordinator before it takes a
	// worker's hello, so the workers' in-flight pulls are adopted
	// whichever campaign they belong to, never answered "abandon" for a
	// job not installed yet.
	held := heldRunner{}
	for _, spec := range local.specs {
		in, err := co.Install(spec, dist.CampaignTag{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		key, _ := json.Marshal(spec)
		held[string(key)] = in
	}
	hold.open()
	restartCfg := cfg
	restartCfg.Runner = held
	got, err := core.RunSweep(restartCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The recovered sweep must be indistinguishable from the
	// uninterrupted single-process one, down to the last bit.
	requireBitIdenticalLogs(t, want.Logs, got.Logs)
	if len(got.Reference) != len(want.Reference) || len(got.Best.PMF) != len(want.Best.PMF) {
		t.Fatalf("grid sizes diverge: ref %d/%d, pmf %d/%d",
			len(got.Reference), len(want.Reference), len(got.Best.PMF), len(want.Best.PMF))
	}
	for i := range want.Reference {
		if got.Reference[i] != want.Reference[i] {
			t.Fatalf("reference PMF diverges at %d: %v != %v", i, got.Reference[i], want.Reference[i])
		}
	}
	for i := range want.Best.PMF {
		if got.Best.PMF[i] != want.Best.PMF[i] {
			t.Fatalf("merged PMF diverges at %d: %v != %v", i, got.Best.PMF[i], want.Best.PMF[i])
		}
	}

	st := co.Stats()
	if st.Restarts != 1 {
		t.Fatalf("stats.Restarts = %d, want 1", st.Restarts)
	}
	if st.ReplayedRecords == 0 {
		t.Fatal("restart replayed no journal records")
	}
	if st.DuplicateResultsDropped < 1 {
		t.Fatalf("injected duplicate result was not dropped: %+v", st)
	}
	if st.Adoptions < 1 {
		t.Fatalf("no mid-pull worker was adopted across the restart: %+v", st)
	}
	dist.RequireResumed(t, events, spooledAtKill)
}
