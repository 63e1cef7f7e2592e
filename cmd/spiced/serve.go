package main

// spiced -serve: the control-plane mode. Instead of pulling jobs as a
// worker, the daemon becomes the long-lived service the fleet gathers
// around: it embeds a dist coordinator, wraps it in the multi-tenant
// campaign control plane (quotas, fair-share scheduling), and serves the
// HTTP API on one listener together with /metrics, /healthz and /readyz.
// The coordinator's journal is the one durable record of every accepted
// campaign; /readyz goes ready only after its replayed campaigns are
// back on the coordinator.
//
// Example — a control plane with two in-process workers and quotas:
//
//	spiced -serve -listen :9555 -http :9556 -state /var/lib/spice \
//	       -workers 2 -quotas 'alice=4:2,bob=2:1'
//	spice -server :9556 -tenant alice -kappas 100 -out logs/
//
// External spiced workers join the embedded coordinator as usual:
//
//	spiced -coordinator host:9555 -name gamma

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/obs"
)

var (
	serveMode    = flag.Bool("serve", false, "run as the campaign control plane instead of a worker: embedded coordinator + persistent multi-tenant queue + HTTP API")
	serveListen  = flag.String("listen", "127.0.0.1:9555", "with -serve: coordinator address spiced workers connect to")
	serveHTTP    = flag.String("http", "127.0.0.1:9556", "with -serve: HTTP address for the campaign API, /metrics, /healthz and /readyz")
	serveWorkers = flag.Int("workers", 0, "with -serve: in-process workers to start alongside the coordinator")
	serveSystem  = flag.String("system", "", "with -serve: JSON core.SystemConfig for the simulated system (default: the standard sweep system)")
	agingRate    = flag.Float64("aging", 1, "with -serve: fair-share aging in priority points per waiting hour: every whole point lifts a waiting campaign one priority band, and within a band the tenant with less usage goes first (starvation-freedom knob; 0 disables aging)")
	quotasFlag   = flag.String("quotas", "", "with -serve: per-tenant quotas, 'tenant=maxQueued[:maxRunning],...' (0 = unlimited)")
	defaultQuota = flag.String("default-quota", "", "with -serve: quota for tenants absent from -quotas, 'maxQueued[:maxRunning]'")
)

// serveFlags binds the -serve flags that are dist knobs onto c. The
// journal knobs tune the coordinator's journal, the one log, and
// -max-inflight is the one "how much at once" dial for the daemon: it
// caps worker requests in processing at the embedded coordinator AND
// concurrent API requests at the HTTP layer (excess of either is shed
// with a retry hint, never queued) — runServe hands it to the control
// plane too.
func serveFlags(fs *flag.FlagSet, c *dist.Config) {
	fs.StringVar(&c.StateDir, "state", c.StateDir, "with -serve: state directory for the coordinator's journal, the durable record of every accepted campaign and its jobs (required; survives SIGKILL)")
	fs.Int64Var(&c.CompactBytes, "compact-bytes", c.CompactBytes, "with -serve: compact the journal (fold it into a snapshot and truncate the log) when it grows past this size, bounding the on-disk footprint and replay time (0 disables)")
	fs.IntVar(&c.StorageRetries, "storage-retries", c.StorageRetries, "with -serve: retries (short capped backoff) for a failed journal append before the service enters the degraded storage state — submissions and cancels get 503 + Retry-After, running campaigns keep their leases, and the coordinator's storage probe restores service when the disk recovers")
	fs.IntVar(&c.MaxInflight, "max-inflight", c.MaxInflight, "with -serve: cap on requests processed at once — worker polls at the coordinator (shed with a jittered wait hint) and concurrent HTTP API requests (shed with 503 + Retry-After) (0 disables both)")
}

// parseQuota parses "maxQueued[:maxRunning]".
func parseQuota(s string) (controlplane.Quota, error) {
	var q controlplane.Quota
	head, tail, _ := strings.Cut(s, ":")
	mq, err := strconv.Atoi(head)
	if err != nil {
		return q, fmt.Errorf("bad maxQueued %q", head)
	}
	q.MaxQueued = mq
	if tail != "" {
		mr, err := strconv.Atoi(tail)
		if err != nil {
			return q, fmt.Errorf("bad maxRunning %q", tail)
		}
		q.MaxRunning = mr
	}
	return q, nil
}

func parseQuotas(s string) (map[string]controlplane.Quota, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]controlplane.Quota)
	for _, part := range strings.Split(s, ",") {
		tenant, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("bad quota entry %q (want tenant=maxQueued[:maxRunning])", part)
		}
		q, err := parseQuota(spec)
		if err != nil {
			return nil, fmt.Errorf("quota for %s: %w", tenant, err)
		}
		out[tenant] = q
	}
	return out, nil
}

// runServe is the -serve main loop. It owns process lifecycle: SIGTERM
// and SIGINT shut down cleanly; SIGKILL is the crash the journals are
// for.
func runServe(dcfg dist.Config, reg *obs.Registry, events *obs.EventLog) error {
	if dcfg.StateDir == "" {
		return fmt.Errorf("-serve requires -state (accepted campaigns must survive restarts)")
	}

	// The simulated system shipped to workers.
	sys := core.DefaultSystem()
	if *serveSystem != "" {
		if err := json.Unmarshal([]byte(*serveSystem), &sys); err != nil {
			return fmt.Errorf("-system: %w", err)
		}
	}
	if err := sys.Validate(); err != nil {
		return fmt.Errorf("-system: %w", err)
	}
	sysJSON, err := json.Marshal(sys)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *serveListen)
	if err != nil {
		return err
	}
	dcfg.Metrics, dcfg.Events = reg, events
	co, err := dist.NewCoordinator(ln, sysJSON, dcfg)
	if err != nil {
		ln.Close()
		return err
	}
	defer co.Close()

	quotas, err := parseQuotas(*quotasFlag)
	if err != nil {
		return err
	}
	var defQ controlplane.Quota
	if *defaultQuota != "" {
		if defQ, err = parseQuota(*defaultQuota); err != nil {
			return fmt.Errorf("-default-quota: %w", err)
		}
	}
	cp, err := controlplane.New(controlplane.Config{
		Coordinator:   co,
		StateDir:      dcfg.StateDir, // where an older server's queue.log lies
		DefaultQuota:  defQ,
		Quotas:        quotas,
		Aging:         *agingRate,
		MaxConcurrent: dcfg.MaxInflight,
		Metrics:       reg,
		Events:        events,
	})
	if err != nil {
		return err
	}
	defer cp.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for i := 0; i < *serveWorkers; i++ {
		w, err := dist.NewWorker(fmt.Sprintf("cp-local-%d", i), "", ln.Addr().String(), core.BuildFromJSON, dist.Defaults())
		if err != nil {
			return err
		}
		go w.Run(ctx)
	}

	// One listener serves the campaign API and the obs endpoints;
	// /readyz flips once the replayed campaigns are on the coordinator.
	mux := obs.NewMux(reg, events, nil, cp.Ready)
	cp.Mount(mux)
	srv, err := obs.ServeHandler(*serveHTTP, mux)
	if err != nil {
		return err
	}
	defer srv.Close()
	cp.Start()

	fmt.Printf("control plane: http://%s/api/v1/campaigns (coordinator %s, %d in-process workers)\n",
		srv.Addr(), ln.Addr(), *serveWorkers)
	<-ctx.Done()
	fmt.Println("shutting down")
	return nil
}
