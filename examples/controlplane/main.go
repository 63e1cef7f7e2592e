// Controlplane: the multi-tenant campaign service end-to-end, in one
// process — a dist coordinator wrapped by internal/controlplane, its
// HTTP/JSON API served next to the obs endpoints, two tenants
// submitting over real HTTP, a quota rejection, fair-share accounting,
// and the two durability guarantees: results survive a full restart
// (recovered through the dist journal with no re-simulation), and the
// control-plane run is bit-identical to a plain in-process LocalRunner.
//
// Run with:
//
//	go run ./examples/controlplane
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/dist/statsfmt"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
)

// A tiny system so the demo finishes in seconds.
func system() core.SystemConfig {
	return core.SystemConfig{Beads: 3, StartZ: 5, EquilSteps: 50, DT: 0.02, Temp: 300, PoreFriction: 1}
}

func specFor(tenant string) campaign.Spec {
	switch tenant {
	case "alice":
		return campaign.Spec{Kappas: []float64{100}, Velocities: []float64{800}, Replicas: 2, Distance: 3, Seed: 21}
	default:
		return campaign.Spec{Kappas: []float64{300}, Velocities: []float64{1600}, Replicas: 2, Distance: 3, Seed: 77}
	}
}

// startService boots coordinator + control plane + API server over the
// given state directories and returns the pieces plus the HTTP addr.
func startService(ctx context.Context, coState, cpState string, workers int) (*dist.Coordinator, *controlplane.Server, *obs.Server, error) {
	sysJSON, err := json.Marshal(system())
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	dcfg := dist.Defaults()
	dcfg.StateDir = coState
	co, err := dist.NewCoordinator(ln, sysJSON, dcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cp, err := controlplane.New(controlplane.Config{
		Coordinator: co,
		StateDir:    cpState,
		Quotas: map[string]controlplane.Quota{
			"alice": {MaxQueued: 2, MaxRunning: 2},
			"bob":   {MaxQueued: 1, MaxRunning: 2},
		},
		Aging: 1,
	})
	if err != nil {
		co.Close()
		return nil, nil, nil, err
	}
	for i := 0; i < workers; i++ {
		w, err := dist.NewWorker(fmt.Sprintf("local-%d", i), "", ln.Addr().String(), core.BuildFromJSON, dist.Defaults())
		if err != nil {
			return nil, nil, nil, err
		}
		go w.Run(ctx)
	}
	mux := obs.NewMux(nil, nil, nil, cp.Ready)
	cp.Mount(mux)
	srv, err := obs.ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		return nil, nil, nil, err
	}
	cp.Start()
	return co, cp, srv, nil
}

func sampleCount(logs map[campaign.Combo][]*trace.WorkLog) int {
	n := 0
	for _, ls := range logs {
		for _, wl := range ls {
			n += len(wl.Samples)
		}
	}
	return n
}

func identical(a, b map[campaign.Combo][]*trace.WorkLog) bool {
	fa, fb := controlplane.FlattenResult(a), controlplane.FlattenResult(b)
	ja, _ := json.Marshal(fa)
	jb, _ := json.Marshal(fb)
	return string(ja) == string(jb)
}

func main() {
	log.SetFlags(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	coState, err := os.MkdirTemp("", "cp-co-")
	if err != nil {
		log.Fatal(err)
	}
	cpState, err := os.MkdirTemp("", "cp-queue-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(coState)
	defer os.RemoveAll(cpState)

	co, cp, srv, err := startService(ctx, coState, cpState, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("control plane up at http://%s/api/v1/campaigns\n\n", srv.Addr())

	// --- Two tenants submit over real HTTP ---
	// Retries are opt-in and narrow: only refusals carrying Retry-After
	// (shed load, degraded storage) are retried, with decorrelated
	// backoff so a refused fleet of clients comes back spread out.
	cl := &controlplane.Client{Base: srv.Addr(), RetryMax: 4}
	ids := map[string]string{}
	for _, tenant := range []string{"alice", "bob"} {
		id, err := cl.Submit(ctx, specFor(tenant), dist.CampaignTag{Tenant: tenant, Priority: 1})
		if err != nil {
			log.Fatal(err)
		}
		ids[tenant] = id
		fmt.Printf("%-6s submitted %s (%d jobs)\n", tenant, id, len(specFor(tenant).Tasks()))
	}

	// bob's MaxQueued is 1, so a second distinct submission is rejected
	// at admission — HTTP 429, reconstructed client-side as the same
	// sentinel the server uses. Rejections are never journaled: a 429
	// is not an acceptance, so a restart owes it nothing.
	over := specFor("bob")
	over.Seed = 99
	if _, err := cl.Submit(ctx, over, dist.CampaignTag{Tenant: "bob"}); errors.Is(err, controlplane.ErrQuotaExceeded) {
		fmt.Printf("bob    over quota: %v\n\n", err)
	} else {
		log.Fatalf("expected quota rejection, got %v", err)
	}

	// --- Both campaigns run to completion ---
	results := map[string]map[campaign.Combo][]*trace.WorkLog{}
	for tenant, id := range ids {
		c, err := cl.WaitDone(ctx, id, 100*time.Millisecond)
		if err != nil || c.State != controlplane.StateDone {
			log.Fatalf("%s: state %s err %v", tenant, c.State, err)
		}
		if results[tenant], err = cl.Result(ctx, id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s done: %d/%d jobs, %d samples\n", tenant, c.JobsDone, c.JobsTotal, sampleCount(results[tenant]))
	}

	// --- The unified stats view: queue depths + the dist snapshot ---
	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nper-tenant accounting (usage = simulated ns of finished pulls, the fair-share ledger):\n")
	for _, q := range st.Queue {
		fmt.Printf("  %-6s done=%d usage=%.4g ns\n", q.Tenant, q.Done, q.Usage)
	}
	fmt.Println()
	statsfmt.Render(os.Stdout, st.Dist, "  dist: ")

	// --- Bit-identity: control plane vs plain LocalRunner ---
	sys := system()
	lr := &campaign.LocalRunner{
		Build:   func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) { return sys.Build(seed) },
		Workers: 1,
	}
	baseline, err := lr.Run(specFor("alice"))
	if err != nil {
		log.Fatal(err)
	}
	if !identical(results["alice"], baseline) {
		log.Fatal("control-plane result differs from LocalRunner baseline")
	}
	fmt.Printf("\nalice's campaign is bit-identical to an in-process LocalRunner run\n")

	// --- Durability: full restart, result recovered without re-running ---
	srv.Close()
	cp.Close()
	co.Close()
	co2, cp2, srv2, err := startService(ctx, coState, cpState, 0) // zero workers: nothing can simulate
	if err != nil {
		log.Fatal(err)
	}
	defer func() { srv2.Close(); cp2.Close(); co2.Close() }()
	cl2 := &controlplane.Client{Base: srv2.Addr(), RetryMax: 4}
	recovered, err := cl2.Result(ctx, ids["alice"])
	if err != nil {
		log.Fatal(err)
	}
	if !identical(recovered, baseline) {
		log.Fatal("recovered result differs from baseline")
	}
	fmt.Printf("after a full restart (zero workers attached) the coordinator's journal\n")
	fmt.Printf("replays alice's campaign and her result is recovered byte-identical\n")
	fmt.Printf("through it — no simulation re-ran\n")
}
