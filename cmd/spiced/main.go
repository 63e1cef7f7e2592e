// Command spiced is the SPICE daemon. With -serve it is the one process
// that hosts a coordinator: the campaign control plane, a persistent
// multi-tenant queue with an HTTP API in front of an embedded
// coordinator (see serve.go), which spice -server drives. Otherwise it
// is a worker: it connects to that coordinator, pulls SMD jobs from its
// queue, streams checkpoints back with every heartbeat, and exits when
// the coordinator drains. Kill a worker mid-job and the coordinator
// reassigns the job to another worker, which resumes from the last
// streamed checkpoint with bit-identical results.
//
// Example — a control plane plus two external workers:
//
//	spiced -serve -listen :9555 -http :9556 -state /var/lib/spice &
//	spiced -coordinator localhost:9555 -name alpha
//	spiced -coordinator localhost:9555 -name beta
//	spice -server :9556 -production -out logs/
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spiced: ")

	// One dist.Config per mode, each seeded from dist.Defaults() with the
	// mode's flags bound straight onto its fields: flag semantics are the
	// Config semantics ("0 disables"), and Defaults() is the only place a
	// default is written.
	wcfg, scfg := dist.Defaults(), dist.Defaults()
	workerFlags(flag.CommandLine, &wcfg)
	serveFlags(flag.CommandLine, &scfg)
	var (
		coordinator = flag.String("coordinator", "", "coordinator address to pull jobs from (required)")
		name        = flag.String("name", "", "worker name in coordinator stats (default hostname)")
		site        = flag.String("site", "", "federation site identity: the grain at which the coordinator tracks health, trips circuit breakers, and places speculative hedges; every spiced on one machine/cluster should share it (default: worker name)")
		obsAddr     = flag.String("obs-addr", "", "serve /metrics (Prometheus text), /healthz and /debug/pprof/ on this address (e.g. 127.0.0.1:9091)")
		obsEvents   = flag.String("obs-events", "", "append the structured JSON-lines worker event log to this file (- for stderr)")
	)
	flag.Parse()

	if *serveMode {
		events, closeEvents, err := obs.OpenEventLog(*obsEvents)
		if err != nil {
			log.Fatal(err)
		}
		defer closeEvents()
		if err := runServe(scfg, obs.NewRegistry(), events); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *coordinator == "" {
		log.Fatal("-coordinator is required (or -serve for control-plane mode)")
	}
	if err := checkIOTimeout(wcfg); err != nil {
		log.Fatal(err)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = fmt.Sprintf("spiced-%d", os.Getpid())
		}
		*name = host
	}

	// Observability plumbing, same shape as spice -obs-addr.
	if *obsAddr != "" || *obsEvents != "" {
		events, closeEvents, err := obs.OpenEventLog(*obsEvents)
		if err != nil {
			log.Fatal(err)
		}
		defer closeEvents()
		wcfg.Metrics, wcfg.Events = obs.NewRegistry(), events
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, wcfg.Metrics, wcfg.Events, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (also /healthz, /debug/pprof/, /debug/events)\n", srv.Addr())
	}

	w, err := dist.NewWorker(*name, *site, *coordinator, core.BuildFromJSON, wcfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("spiced %s (site %s): %d slot(s), pulling from %s\n", *name, w.Site, wcfg.Slots, *coordinator)
	if err := w.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("coordinator drained, exiting")
}

// checkIOTimeout refuses a worker read deadline under the lease TTL. The
// coordinator holds an idle poll unanswered for up to half a TTL; a
// worker that times out first drops the connection and re-dials on every
// idle poll, while its abandoned poll stays parked and can still be
// granted a job.
func checkIOTimeout(c dist.Config) error {
	if c.IOTimeout > 0 && c.IOTimeout < c.LeaseTTL {
		return fmt.Errorf("-io-timeout %v is under the %v lease TTL: the coordinator holds an idle poll for up to %v (0 disables the deadlines)",
			c.IOTimeout, c.LeaseTTL, c.LeaseTTL/2)
	}
	return nil
}

// workerFlags binds the worker-mode knobs onto c.
func workerFlags(fs *flag.FlagSet, c *dist.Config) {
	fs.DurationVar(&c.IOTimeout, "io-timeout", c.IOTimeout, "read/write deadline armed before every I/O on the coordinator connection, so a half-open peer times out instead of wedging (0 disables)")
	fs.IntVar(&c.Slots, "slots", c.Slots, "jobs to run concurrently")
	fs.DurationVar(&c.BeatInterval, "beat", c.BeatInterval, "lease heartbeat period")
	fs.IntVar(&c.CheckpointEvery, "ckpt-every", c.CheckpointEvery, "recorded samples between streamed checkpoints")
	fs.DurationVar(&c.Throttle, "throttle", c.Throttle, "artificial sleep per checkpoint (testing/demo)")
	fs.DurationVar(&c.ReconnectWindow, "reconnect-window", c.ReconnectWindow, "give up after failing to reach the coordinator for this long")
	fs.DurationVar(&c.ReconnectBackoffMax, "reconnect-backoff", c.ReconnectBackoffMax, "cap on the exponential re-dial backoff while the coordinator is unreachable")
}
