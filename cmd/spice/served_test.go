package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
)

// TestServedPipelineMatchesLocal: spice -server runs the sweep and the
// production PMF through a control plane, and prints the same tables and
// writes byte-identical -out work logs as the local pipeline on the same
// flags. A second run against the same server attaches to the campaigns
// the first one created instead of submitting new ones.
func TestServedPipelineMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the spice binary and runs a served pipeline")
	}
	bin := filepath.Join(t.TempDir(), "spice")
	build := exec.Command("go", "build", "-o", bin, "spice/cmd/spice")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building spice: %v\n%s", err, out)
	}

	// The control plane spiced -serve would run, on the system the local
	// run builds from -beads 3.
	sys := core.PaperSweep().System
	sys.Beads = 3
	sysJSON, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dist.Defaults()
	dcfg.StateDir = t.TempDir()
	co, err := dist.NewCoordinator(ln, sysJSON, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	cp, err := controlplane.New(controlplane.Config{Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	mux := http.NewServeMux()
	cp.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for _, name := range []string{"w0", "w1"} {
		wcfg := dist.Defaults()
		wcfg.ReconnectWindow = 100 * time.Millisecond
		w, err := dist.NewWorker(name, "", ln.Addr().String(), core.BuildFromJSON, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}

	// Each run writes -out logs relative to its own directory, so the
	// "wrote ... to logs" line is the same in every run's stdout.
	run := func(extra ...string) (dir, stdout, stderr string) {
		t.Helper()
		dir = t.TempDir()
		cmd := exec.Command(bin, append([]string{
			"-beads", "3", "-kappas", "100,1000", "-velocities", "800", "-replicas", "2",
			"-distance", "3", "-seed", "31", "-production", "-out", "logs",
		}, extra...)...)
		cmd.Dir = dir
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("spice %v: %v\nstdout:\n%s\nstderr:\n%s", extra, err, out.String(), errOut.String())
		}
		return dir, out.String(), errOut.String()
	}
	localDir, localOut, _ := run()
	if !strings.Contains(localOut, "Production PMF at") {
		t.Fatalf("local run printed no production table:\n%s", localOut)
	}

	for i, want := range []string{"submitted ", "attached to "} {
		dir, out, errOut := run("-server", srv.URL, "-tenant", "alice")
		if out != localOut {
			t.Fatalf("served run %d stdout differs from the local run:\n got:\n%s\nwant:\n%s", i+1, out, localOut)
		}
		requireSameLogs(t, filepath.Join(localDir, "logs"), filepath.Join(dir, "logs"))
		// The sweep's reference and grid campaigns, then production.
		if n := strings.Count(errOut, want); n != 3 {
			t.Fatalf("served run %d: %d %q lines, want 3:\n%s", i+1, n, want, errOut)
		}
		if n := len(cp.List("alice")); n != 3 {
			t.Fatalf("after served run %d: %d campaigns, want 3", i+1, n)
		}
	}
}

// requireSameLogs requires two -out directories to hold the same files
// with the same bytes.
func requireSameLogs(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	want, err := os.ReadDir(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d work logs, want %d (and at least one)", len(got), len(want))
	}
	for _, e := range want {
		a, err := os.ReadFile(filepath.Join(wantDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(gotDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("work log %s differs between the local and the served run", e.Name())
		}
	}
}
