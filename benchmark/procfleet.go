package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// readyDeadline bounds fleet start-up: a control plane that is not
// /readyz with every worker connected by then fails the run loudly.
const readyDeadline = 15 * time.Second

// buildSpiced compiles cmd/spiced from the working tree into
// <root>/.bench_build/bin and returns the binary's path. The toolchain's
// cache lives in the same directory (see run.sh), so only the first
// build in a checkout is a cold one.
func buildSpiced(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "spiced")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spiced")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/spiced: %w\n%s", err, out)
	}
	return bin, nil
}

var bannerRE = regexp.MustCompile(`^control plane: http://(\S+)/api/v1/campaigns \(coordinator (\S+),`)

// parseBanner extracts the HTTP and coordinator addresses from the line
// spiced -serve prints once both listeners are bound.
func parseBanner(line string) (httpAddr, coordAddr string, ok bool) {
	m := bannerRE.FindStringSubmatch(line)
	if m == nil {
		return "", "", false
	}
	return m[1], m[2], true
}

// child is one spiced process with its captured stderr.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed when Wait has returned
}

// children tracks every process the benchmark started so that exit,
// panic and signal paths can all kill what is left.
var children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

func startChild(bin string, args ...string) (*child, io.ReadCloser, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// Own process group, so a kill reaches anything the child spawned;
	// Pdeathsig covers the one path no handler can: the benchmark itself
	// being SIGKILLed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	children.mu.Lock()
	defer children.mu.Unlock()
	if err := c.cmd.Start(); err != nil {
		return nil, nil, err
	}
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	return c, stdout, nil
}

// reap waits for the child after its stdout has been drained.
func (c *child) reap() {
	c.cmd.Wait()
	children.mu.Lock()
	delete(children.live, c)
	children.mu.Unlock()
	close(c.done)
}

func (c *child) signal(sig syscall.Signal) {
	if c.cmd.Process != nil {
		syscall.Kill(-c.cmd.Process.Pid, sig)
	}
}

// stop asks the child to exit and kills its group if it has not within
// the grace period; it returns once the process has been waited for.
func (c *child) stop(grace time.Duration) {
	c.signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(grace):
		c.signal(syscall.SIGKILL)
		<-c.done
	}
}

// killAllChildren is the last-resort cleanup for exit, panic and signal
// paths: SIGKILL to every group still alive, then wait for each.
func killAllChildren() {
	children.mu.Lock()
	var left []*child
	for c := range children.live {
		left = append(left, c)
	}
	children.mu.Unlock()
	for _, c := range left {
		c.signal(syscall.SIGKILL)
	}
	for _, c := range left {
		<-c.done
	}
}

// procFleet is the system under test as its users run it: one
// spiced -serve process and fleetWorkers spiced worker processes on
// loopback, with a fresh state directory.
type procFleet struct {
	serve    *child
	workers  []*child
	httpAddr string
	stateDir string

	closeOnce sync.Once
	closeErr  error
}

// bootProcFleet starts the control plane and the workers and returns
// once /readyz answers. The workers finish connecting only when the
// first campaign starts the coordinator's accept loop, so the caller
// follows up with warmUp.
func bootProcFleet(ctx context.Context, bin, stateDir string) (*procFleet, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	f := &procFleet{stateDir: stateDir}
	serve, stdout, err := startChild(bin, "-serve", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-state", stateDir, "-system", string(systemJSON()))
	if err != nil {
		os.RemoveAll(stateDir)
		return nil, fmt.Errorf("starting spiced -serve: %w", err)
	}
	f.serve = serve
	banner := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if h, c, ok := parseBanner(sc.Text()); ok {
				banner <- [2]string{h, c}
			}
		}
		serve.reap()
	}()
	deadline := time.NewTimer(readyDeadline)
	defer deadline.Stop()
	var coordAddr string
	select {
	case b := <-banner:
		f.httpAddr, coordAddr = b[0], b[1]
	case <-serve.done:
		f.close()
		return nil, fmt.Errorf("spiced -serve exited before printing its banner:\n%s", serve.stderr.String())
	case <-deadline.C:
		f.close()
		return nil, fmt.Errorf("spiced -serve printed no banner within %v:\n%s", readyDeadline, serve.stderr.String())
	case <-ctx.Done():
		f.close()
		return nil, ctx.Err()
	}
	for i := 0; i < fleetWorkers; i++ {
		w, wout, err := startChild(bin, "-coordinator", coordAddr, "-name", fmt.Sprintf("w%d", i), "-slots", "1")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("starting spiced worker %d: %w", i, err)
		}
		f.workers = append(f.workers, w)
		go func() {
			io.Copy(io.Discard, wout)
			w.reap()
		}()
	}
	for {
		resp, err := http.Get("http://" + f.httpAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		select {
		case <-deadline.C:
			f.close()
			return nil, fmt.Errorf("control plane at %s not ready within %v (last: %v):\n%s",
				f.httpAddr, readyDeadline, err, serve.stderr.String())
		case <-serve.done:
			f.close()
			return nil, fmt.Errorf("spiced -serve exited during start-up:\n%s", serve.stderr.String())
		case <-ctx.Done():
			f.close()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// pids returns the serve pid and the worker pids.
func (f *procFleet) pids() (serve int, workers []int) {
	for _, w := range f.workers {
		workers = append(workers, w.cmd.Process.Pid)
	}
	return f.serve.cmd.Process.Pid, workers
}

// cpu returns the CPU seconds used so far by the serve process and by
// all workers together.
func (f *procFleet) cpu() (serve, workers float64, err error) {
	spid, wpids := f.pids()
	if serve, err = cpuSeconds(spid); err != nil {
		return 0, 0, err
	}
	for _, pid := range wpids {
		c, err := cpuSeconds(pid)
		if err != nil {
			return 0, 0, err
		}
		workers += c
	}
	return serve, workers, nil
}

// alive reports an error if any fleet process has exited.
func (f *procFleet) alive() error {
	for i, c := range append([]*child{f.serve}, f.workers...) {
		select {
		case <-c.done:
			return fmt.Errorf("fleet process %d (%s) exited: %s", i, c.cmd.Args[1], c.stderr.String())
		default:
		}
	}
	return nil
}

// close stops the workers, then the control plane, waits for all of
// them and removes the state directory. It is safe to call again.
func (f *procFleet) close() error {
	f.closeOnce.Do(func() { f.closeErr = f.shutdown() })
	return f.closeErr
}

func (f *procFleet) shutdown() error {
	for _, w := range f.workers {
		w.signal(syscall.SIGTERM)
	}
	for _, w := range f.workers {
		w.stop(3 * time.Second)
	}
	if f.serve != nil {
		f.serve.stop(3 * time.Second)
	}
	err := os.RemoveAll(f.stateDir)
	if f.serve != nil && f.serve.cmd.ProcessState != nil && !f.serve.cmd.ProcessState.Success() {
		err = errors.Join(err, fmt.Errorf("spiced -serve: %v:\n%s", f.serve.cmd.ProcessState, f.serve.stderr.String()))
	}
	return err
}
