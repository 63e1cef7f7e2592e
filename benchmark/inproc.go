package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/faultfs"
	"spice/internal/md"
	"spice/internal/obs"
)

// The traced fleet is the same fleet assembled inside this process from
// the constructors cmd/spiced calls, so that the benchmark can put a
// probe at every public seam between the layers: the worker's build
// function, its dialer, both journals' filesystems and both event logs.
// It shares one Go runtime with the client and the baselines, so what it
// yields is reported as shares, counts and per-call costs, never
// subtracted from the untraced seconds.

// eventSink collects the JSON lines the fleet's event logs emit.
type eventSink struct {
	mu    sync.Mutex
	lines [][]byte
}

func (s *eventSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.lines = append(s.lines, append([]byte(nil), p...))
	s.mu.Unlock()
	return len(p), nil
}

func (s *eventSink) events() ([]obs.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]obs.Event, 0, len(s.lines))
	for _, l := range s.lines {
		var ev obs.Event
		if err := json.Unmarshal(l, &ev); err != nil {
			return nil, fmt.Errorf("event log line %q: %w", l, err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// fsOp is one timed mutation of a journal's filesystem.
type fsOp struct {
	Op    string // write, sync, rename, syncdir
	Spool bool   // under the checkpoint spool rather than the log
	Bytes int
	Start time.Time
	Dur   time.Duration
}

// timingFS is faultfs.OS with a stopwatch on every mutating call.
type timingFS struct {
	faultfs.FS
	mu  sync.Mutex
	ops []fsOp
}

func newTimingFS() *timingFS { return &timingFS{FS: faultfs.OS} }

func isSpool(name string) bool {
	return strings.Contains(name, string(os.PathSeparator)+"spool"+string(os.PathSeparator)) ||
		strings.HasSuffix(name, string(os.PathSeparator)+"spool")
}

func (t *timingFS) record(op string, spool bool, n int, start time.Time) {
	d := time.Since(start)
	t.mu.Lock()
	t.ops = append(t.ops, fsOp{Op: op, Spool: spool, Bytes: n, Start: start, Dur: d})
	t.mu.Unlock()
}

func (t *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, spool: isSpool(name)}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := t.FS.Rename(oldpath, newpath)
	t.record("rename", isSpool(newpath), 0, start)
	return err
}

func (t *timingFS) SyncDir(name string) error {
	start := time.Now()
	err := t.FS.SyncDir(name)
	t.record("syncdir", isSpool(name), 0, start)
	return err
}

func (t *timingFS) snapshot() []fsOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]fsOp(nil), t.ops...)
}

type timingFile struct {
	faultfs.File
	fs    *timingFS
	spool bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.record("write", f.spool, n, start)
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.record("sync", f.spool, 0, start)
	return err
}

// connTally counts the requests on the workers' connections and times
// each request → response exchange. The protocol is strictly one
// response per request on a connection, so a write with no request
// outstanding starts an exchange and the next read that returns data
// ends it.
type connTally struct {
	mu    sync.Mutex
	msgs  int
	rttNs []float64
}

type timedConn struct {
	net.Conn
	t    *connTally
	sent time.Time // when the outstanding request left; zero if none (under t.mu)
}

func (t *connTally) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, t: t}, nil
}

func (c *timedConn) Write(p []byte) (int, error) {
	c.t.mu.Lock()
	if c.sent.IsZero() {
		c.sent = time.Now()
		c.t.msgs++
	}
	c.t.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.mu.Lock()
	if n > 0 && !c.sent.IsZero() {
		c.t.rttNs = append(c.t.rttNs, float64(time.Since(c.sent)))
		c.sent = time.Time{}
	}
	c.t.mu.Unlock()
	return n, err
}

// buildSpan is one engine build on a worker.
type buildSpan struct {
	Worker     string
	Start, End time.Time
}

// inprocFleet is the traced fleet and its probes.
type inprocFleet struct {
	httpAddr string
	stateDir string

	co      *dist.Coordinator
	cp      *controlplane.Server
	srv     *obs.Server
	workers []*dist.Worker
	names   []string
	stop    context.CancelFunc
	wg      sync.WaitGroup

	sink    eventSink
	distFS  *timingFS
	queueFS *timingFS
	conns   connTally

	mu     sync.Mutex
	builds []buildSpan

	closeOnce sync.Once
	closeErr  error
}

// bootInprocFleet mirrors runServe in cmd/spiced (same defaults, same
// order of construction) plus fleetWorkers workers built the way spiced's
// worker mode builds them, with the benchmark's probes in the seams.
func bootInprocFleet(stateDir string) (*inprocFleet, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	f := &inprocFleet{stateDir: stateDir, distFS: newTimingFS(), queueFS: newTimingFS()}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	reg := obs.NewRegistry()
	serveEvents := obs.NewEventLog(&f.sink, 512)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	dcfg := dist.Defaults()
	dcfg.StateDir = stateDir
	dcfg.Metrics = reg
	dcfg.Events = serveEvents
	dcfg.FS = f.distFS
	if f.co, err = dist.NewCoordinator(ln, systemJSON(), dcfg); err != nil {
		ln.Close()
		return nil, err
	}
	f.cp, err = controlplane.New(controlplane.Config{
		Coordinator:    f.co,
		StateDir:       stateDir,
		Aging:          1,
		CompactBytes:   dcfg.CompactBytes,
		StorageRetries: dcfg.StorageRetries,
		MaxConcurrent:  dcfg.MaxInflight,
		Metrics:        reg,
		Events:         serveEvents,
		FS:             f.queueFS,
	})
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		wcfg := dist.Defaults()
		wcfg.Dial = f.conns.dial
		wcfg.Events = obs.NewEventLog(&f.sink, 512)
		w, err := dist.NewWorker(name, "", ln.Addr().String(), f.timedBuild(name), wcfg)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.names = append(f.names, name)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			w.Run(ctx)
		}()
	}
	mux := obs.NewMux(reg, serveEvents, nil, f.cp.Ready)
	f.cp.Mount(mux)
	if f.srv, err = obs.ServeHandler("127.0.0.1:0", mux); err != nil {
		return nil, err
	}
	f.cp.Start()
	f.httpAddr = f.srv.Addr()
	ok = true
	return f, nil
}

// timedBuild is the worker's build function with a stopwatch around it.
func (f *inprocFleet) timedBuild(worker string) dist.BuildFunc {
	return func(system json.RawMessage, c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
		start := time.Now()
		eng, sel, err := core.BuildFromJSON(system, c, seed)
		end := time.Now()
		f.mu.Lock()
		f.builds = append(f.builds, buildSpan{Worker: worker, Start: start, End: end})
		f.mu.Unlock()
		return eng, sel, err
	}
}

// workerStats sums the workers' own execution counters.
func (f *inprocFleet) workerStats() dist.WorkerStats {
	var t dist.WorkerStats
	for _, w := range f.workers {
		s := w.WorkerStats()
		t.CheckpointsSent += s.CheckpointsSent
		t.CheckpointBytes += s.CheckpointBytes
		t.CheckpointRawBytes += s.CheckpointRawBytes
		t.CheckpointDeltas += s.CheckpointDeltas
		t.Steps += s.Steps
	}
	return t
}

// close shuts the fleet down in the order spiced does on SIGTERM and
// removes its state directory. It is safe to call again.
func (f *inprocFleet) close() error {
	f.closeOnce.Do(func() { f.closeErr = f.shutdown() })
	return f.closeErr
}

func (f *inprocFleet) shutdown() error {
	if f.stop != nil {
		f.stop()
	}
	f.wg.Wait()
	var err error
	if f.srv != nil {
		err = errors.Join(err, f.srv.Close())
	}
	if f.cp != nil {
		err = errors.Join(err, f.cp.Close())
	}
	if f.co != nil {
		if cerr := f.co.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			err = errors.Join(err, cerr)
		}
	}
	return errors.Join(err, os.RemoveAll(f.stateDir))
}
