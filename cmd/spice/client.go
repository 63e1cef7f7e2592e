package main

// spice -server: the control-plane client mode. Instead of running the
// sweep in-process, the spec built from the usual flags is submitted to
// a spiced -serve control plane, and campaign lifecycle is driven over
// its HTTP API:
//
//	spice -server :9556 -submit -tenant alice -priority 2 -wait -out logs/
//	spice -server :9556 -status
//	spice -server :9556 -status -id c-1a2b3c4d
//	spice -server :9556 -result c-1a2b3c4d -out logs/
//	spice -server :9556 -cancel c-1a2b3c4d
//
// Work logs fetched with -out are written in the same format and
// layout as a local `spice -out` run, so bit-identity between a
// control-plane campaign and a local run is a byte comparison away.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/dist"
	"spice/internal/dist/statsfmt"
	"spice/internal/trace"
)

var (
	serverAddr = flag.String("server", "", "control plane address (spiced -serve -http): enables client mode with -submit/-status/-cancel/-result")
	submitFlag = flag.Bool("submit", false, "with -server: submit the campaign spec built from -kappas/-velocities/-replicas/-distance/-seed")
	waitFlag   = flag.Bool("wait", false, "with -submit: block until the campaign finishes and fetch its result")
	statusFlag = flag.Bool("status", false, "with -server: list campaigns (all tenants, or -tenant's)")
	statusID   = flag.String("id", "", "with -status: inspect one campaign instead of listing")
	cancelID   = flag.String("cancel", "", "with -server: cancel this campaign")
	resultID   = flag.String("result", "", "with -server: fetch this campaign's work logs (write them with -out)")
	statsFlag  = flag.Bool("stats", false, "with -server: print per-tenant queue depths and the coordinator's unified stats snapshot")
	tenantFlag = flag.String("tenant", "", "with -submit: tenant the campaign is accounted to")
	prioFlag   = flag.Int("priority", 0, "with -submit: base scheduling priority (higher first)")
	nameFlag   = flag.String("campaign-name", "", "with -submit: name distinguishing otherwise-identical submissions")
	retryMax   = flag.Int("retry-max", 4, "with -server: retries for API calls refused with a Retry-After header (503 shed/degraded) before the error is surfaced; the wait is the larger of the server's hint and a decorrelated backoff (0 disables)")
)

// runClient dispatches one client-mode action.
func runClient(addr string, spec campaign.Spec, outDir string) error {
	cl := &controlplane.Client{Base: addr, RetryMax: *retryMax}
	ctx := context.Background()
	switch {
	case *cancelID != "":
		if err := cl.Cancel(ctx, *cancelID); err != nil {
			return err
		}
		fmt.Printf("canceled %s\n", *cancelID)
		return nil

	case *resultID != "":
		logs, err := cl.Result(ctx, *resultID)
		if err != nil {
			return err
		}
		return emitLogs(logs, outDir)

	case *statsFlag:
		st, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %7s %8s %6s %7s %9s %9s\n",
			"TENANT", "queued", "running", "done", "failed", "canceled", "usage_ns")
		for _, q := range st.Queue {
			fmt.Printf("%-12s %7d %8d %6d %7d %9d %9.4g\n",
				q.Tenant, q.Queued, q.Running, q.Done, q.Failed, q.Canceled, q.Usage)
		}
		// The execution half renders through the same statsfmt tables a
		// local `spice -coordinator` run prints at exit.
		fmt.Println()
		statsfmt.Render(os.Stdout, st.Dist, "dist: ")
		return nil

	case *statusFlag:
		if *statusID != "" {
			c, err := cl.Get(ctx, *statusID)
			if err != nil {
				return err
			}
			printCampaigns([]controlplane.Campaign{c})
			return nil
		}
		list, err := cl.List(ctx, *tenantFlag)
		if err != nil {
			return err
		}
		printCampaigns(list)
		return nil

	case *submitFlag:
		tag := dist.CampaignTag{Tenant: *tenantFlag, Priority: *prioFlag, Name: *nameFlag}
		id, err := cl.Submit(ctx, spec, tag)
		if err != nil {
			return err
		}
		fmt.Printf("submitted %s (%d jobs)\n", id, len(spec.Tasks()))
		if !*waitFlag {
			return nil
		}
		c, err := cl.WaitDone(ctx, id, 250*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Printf("campaign %s: %s\n", id, c.State)
		if c.State != controlplane.StateDone {
			return fmt.Errorf("campaign ended %s: %s", c.State, c.Error)
		}
		logs, err := cl.Result(ctx, id)
		if err != nil {
			return err
		}
		return emitLogs(logs, outDir)

	default:
		return fmt.Errorf("-server needs one of -submit, -status, -cancel <id>, -result <id>")
	}
}

// emitLogs prints the per-combo sample summary and, with -out, writes
// the work logs in the local-run layout.
func emitLogs(logs map[campaign.Combo][]*trace.WorkLog, outDir string) error {
	for _, cl := range controlplane.FlattenResult(logs) {
		samples := 0
		for _, wl := range cl.Logs {
			samples += len(wl.Samples)
		}
		fmt.Printf("  κ=%-8g v=%-8g %d replicas, %d samples\n", cl.Kappa, cl.Velocity, len(cl.Logs), samples)
	}
	if outDir == "" {
		return nil
	}
	n, err := writeLogMap(outDir, logs)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d work logs to %s\n", n, outDir)
	return nil
}

func printCampaigns(list []controlplane.Campaign) {
	fmt.Printf("%-12s %-10s %-9s %4s %9s  %s\n", "ID", "TENANT", "STATE", "PRIO", "JOBS", "SUBMITTED")
	for _, c := range list {
		jobs := ""
		if c.JobsTotal > 0 {
			jobs = fmt.Sprintf("%d/%d", c.JobsDone, c.JobsTotal)
		}
		fmt.Printf("%-12s %-10s %-9s %4d %9s  %s\n",
			c.ID, c.Tenant, c.State, c.Priority, jobs, c.Submitted.Format(time.RFC3339))
	}
}
