package main

// spice -server: the control-plane client. With no action flag, the
// pipeline of main.go runs against a spiced -serve control plane: each
// of its campaigns is submitted (or, when an identical submission
// already exists, attached to), waited for and fetched. The action flags
// drive one campaign's lifecycle over the HTTP API instead:
//
//	spice -server :9556 -tenant alice -production -out logs/
//	spice -server :9556 -submit -tenant alice -priority 2
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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/dist"
	"spice/internal/dist/statsfmt"
	"spice/internal/trace"
)

var (
	serverAddr = flag.String("server", "", "control plane address (spiced -serve -http): run the pipeline there, or with -submit/-status/-cancel/-result/-stats drive one campaign")
	submitFlag = flag.Bool("submit", false, "with -server: submit the campaign spec built from -kappas/-velocities/-replicas/-distance/-seed")
	statusFlag = flag.Bool("status", false, "with -server: list campaigns (all tenants, or -tenant's)")
	statusID   = flag.String("id", "", "with -status: inspect one campaign instead of listing")
	cancelID   = flag.String("cancel", "", "with -server: cancel this campaign")
	resultID   = flag.String("result", "", "with -server: fetch this campaign's work logs (write them with -out)")
	statsFlag  = flag.Bool("stats", false, "with -server: print per-tenant queue depths and the coordinator's unified stats snapshot")
	tenantFlag = flag.String("tenant", "", "with -server: tenant the campaigns are accounted to")
	prioFlag   = flag.Int("priority", 0, "with -server: base scheduling priority (higher first)")
	nameFlag   = flag.String("campaign-name", "", "with -server: name distinguishing otherwise-identical submissions")
	retryMax   = flag.Int("retry-max", 4, "with -server: retries for API calls refused with a Retry-After header (503 shed/degraded) before the error is surfaced; the wait is the larger of the server's hint and a decorrelated backoff (0 disables)")
)

// servedRunner is the campaign.Runner of spice -server: each campaign
// runs on the control plane under one tag.
type servedRunner struct {
	cl  *controlplane.Client
	tag dist.CampaignTag
}

// Run submits spec, or attaches to the campaign an identical earlier
// submission created (a re-run after a lost reply or a killed spice),
// waits for it and fetches its work logs.
func (r servedRunner) Run(spec campaign.Spec) (map[campaign.Combo][]*trace.WorkLog, error) {
	ctx := context.Background()
	id, err := r.cl.Submit(ctx, spec, r.tag)
	switch {
	case errors.Is(err, controlplane.ErrDuplicate) && id != "":
		log.Printf("attached to %s", id)
	case err != nil:
		return nil, err
	default:
		log.Printf("submitted %s (%d jobs)", id, len(spec.Tasks()))
	}
	c, err := r.cl.WaitDone(ctx, id, 250*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if c.State != controlplane.StateDone {
		return nil, fmt.Errorf("campaign %s ended %s: %s", id, c.State, c.Error)
	}
	return r.cl.Result(ctx, id)
}

// runAction runs the one action flag given, reporting false when there
// is none.
func runAction(cl *controlplane.Client, spec campaign.Spec, tag dist.CampaignTag, outDir string) (bool, error) {
	ctx := context.Background()
	switch {
	case *cancelID != "":
		if err := cl.Cancel(ctx, *cancelID); err != nil {
			return true, err
		}
		fmt.Printf("canceled %s\n", *cancelID)
		return true, nil

	case *resultID != "":
		logs, err := cl.Result(ctx, *resultID)
		if err != nil {
			return true, err
		}
		return true, emitLogs(logs, outDir)

	case *statsFlag:
		st, err := cl.Stats(ctx)
		if err != nil {
			return true, err
		}
		fmt.Printf("%-12s %7s %8s %6s %7s %9s %9s\n",
			"TENANT", "queued", "running", "done", "failed", "canceled", "usage_ns")
		for _, q := range st.Queue {
			fmt.Printf("%-12s %7d %8d %6d %7d %9d %9.4g\n",
				q.Tenant, q.Queued, q.Running, q.Done, q.Failed, q.Canceled, q.Usage)
		}
		fmt.Println()
		statsfmt.Render(os.Stdout, st.Dist, "dist: ")
		return true, nil

	case *statusFlag:
		if *statusID != "" {
			c, err := cl.Get(ctx, *statusID)
			if err != nil {
				return true, err
			}
			printCampaigns([]controlplane.Campaign{c})
			return true, nil
		}
		list, err := cl.List(ctx, *tenantFlag)
		if err != nil {
			return true, err
		}
		printCampaigns(list)
		return true, nil

	case *submitFlag:
		id, err := cl.Submit(ctx, spec, tag)
		if err != nil {
			return true, err
		}
		fmt.Printf("submitted %s (%d jobs)\n", id, len(spec.Tasks()))
		return true, nil
	}
	return false, nil
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
