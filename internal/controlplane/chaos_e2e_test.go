package controlplane

// The control-plane chaos test: a real spiced -serve process is
// SIGKILLed with two tenants' campaigns in flight — both running on the
// embedded coordinator with no worker to lease them to — and restarted
// on the same state directory. The restart must replay the queue with
// no accepted campaign lost, keep enforcing quotas, and finish both
// campaigns with results bit-identical to in-process LocalRunner
// baselines. SIGKILL (not SIGTERM) is the point: nothing gets to
// flush, so only what the fsynced journal holds survives. The process
// is killed twice — once mid-queue and once mid-replay — because a
// crash while recovering from a crash is the classic journal-corruption
// window.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/md"
)

// chaosSystem is the model system, small enough for CI and identical
// on the serve process and the in-process baseline.
func chaosSystem() core.SystemConfig {
	return core.SystemConfig{
		Beads:        3,
		StartZ:       5,
		EquilSteps:   50,
		DT:           0.02,
		Temp:         300,
		PoreFriction: 1,
	}
}

func buildSpiced(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spiced")
	cmd := exec.Command("go", "build", "-o", bin, "spice/cmd/spiced")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building spiced: %v\n%s", err, out)
	}
	return bin
}

// startServe launches spiced -serve on ephemeral ports and returns the
// process and the HTTP API address parsed from its banner line.
func startServe(t *testing.T, bin, stateDir string, workers int) (*exec.Cmd, string) {
	t.Helper()
	sysJSON, err := json.Marshal(chaosSystem())
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-serve",
		"-listen", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-state", stateDir,
		"-workers", fmt.Sprint(workers),
		"-quotas", "alice=1:1,bob=1:1",
		"-system", string(sysJSON),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "control plane: http://"); ok {
			addr, _, _ := strings.Cut(rest, "/")
			// Keep draining stdout so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return cmd, addr
		}
	}
	t.Fatalf("spiced -serve exited without printing its banner (scanner err: %v)", sc.Err())
	return nil, ""
}

func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("control plane at %s never became ready", addr)
}

// sigkill kills the serve process without any chance to flush.
func sigkill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
}

func TestChaosKillControlPlaneMidQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real control-plane processes")
	}
	// In-process baselines with the identical system.
	sys := chaosSystem()
	lr := &campaign.LocalRunner{
		Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			return sys.Build(seed)
		},
		Workers: 1,
	}
	wantA, err := lr.Run(specA())
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := lr.Run(specB())
	if err != nil {
		t.Fatal(err)
	}

	bin := buildSpiced(t)
	state := t.TempDir()
	ctx := context.Background()
	tagA := dist.CampaignTag{Tenant: "alice"}
	tagB := dist.CampaignTag{Tenant: "bob"}

	// Phase 1 — fill the queue. Zero workers: both campaigns go to the
	// coordinator as they are accepted but cannot progress. At kill time
	// two tenants have campaigns in flight, both running.
	cmd1, addr1 := startServe(t, bin, state, 0)
	waitReady(t, addr1)
	cl1 := &Client{Base: addr1}
	idA, err := cl1.Submit(ctx, specA(), tagA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := cl1.Submit(ctx, specB(), tagB)
	if err != nil {
		t.Fatal(err)
	}
	// Quota enforced live: alice is at MaxQueued=1.
	if _, err := cl1.Submit(ctx, specB(), dist.CampaignTag{Tenant: "alice", Name: "extra"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit pre-kill: %v, want ErrQuotaExceeded", err)
	}
	for _, id := range []string{idA, idB} {
		if c, err := cl1.Get(ctx, id); err != nil || c.State != StateRunning {
			t.Fatalf("campaign %s: state=%s err=%v, want running", id, c.State, err)
		}
	}
	sigkill(t, cmd1)

	// Phase 2 — restart, still zero workers: both campaigns must be
	// replayed (none lost, the rejected one absent) and quotas must
	// bind against the replayed queue exactly as against the live one.
	cmd2, addr2 := startServe(t, bin, state, 0)
	waitReady(t, addr2)
	cl2 := &Client{Base: addr2}
	list, err := cl2.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("after restart: %d campaigns replayed, want 2 (accepted campaigns lost or ghosts revived)", len(list))
	}
	for _, want := range []struct{ id, tenant string }{{idA, "alice"}, {idB, "bob"}} {
		c, err := cl2.Get(ctx, want.id)
		if err != nil {
			t.Fatalf("campaign %s lost across SIGKILL: %v", want.id, err)
		}
		if c.Tenant != want.tenant || c.State.terminal() {
			t.Fatalf("campaign %s replayed wrong: tenant=%s state=%s", want.id, c.Tenant, c.State)
		}
	}
	if _, err := cl2.Submit(ctx, specB(), dist.CampaignTag{Tenant: "alice", Name: "extra"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit after replay: %v, want ErrQuotaExceeded", err)
	}
	// Kill again mid-replayed-state: recovery must itself be crash-safe.
	sigkill(t, cmd2)

	// Phase 3 — restart with workers and let everything drain.
	_, addr3 := startServe(t, bin, state, 2)
	waitReady(t, addr3)
	cl3 := &Client{Base: addr3}
	for _, id := range []string{idA, idB} {
		wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		c, err := cl3.WaitDone(wctx, id, 100*time.Millisecond)
		cancel()
		if err != nil || c.State != StateDone {
			t.Fatalf("campaign %s after final restart: state=%s err=%v", id, c.State, err)
		}
	}
	gotA, err := cl3.Result(ctx, idA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := cl3.Result(ctx, idB)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, wantA, gotA)
	requireBitIdentical(t, wantB, gotB)
}
