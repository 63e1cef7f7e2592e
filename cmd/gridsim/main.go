// Command gridsim runs the federated-grid experiments at the paper's
// production scale: the 72-simulation campaign on the US-UK federation of
// Fig. 5 versus single-site baselines, under background load, reservation
// workflows and failure injection.
//
// Usage:
//
//	gridsim                       # campaign scenarios
//	gridsim -reservations 20      # reservation workflow comparison
//	gridsim -breach               # security-breach resilience experiment
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"spice/internal/campaign"
	"spice/internal/federation"
	"spice/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridsim: ")
	var (
		load         = flag.Float64("load", 0.4, "background load fraction on every machine")
		reservations = flag.Int("reservations", 0, "compare reservation workflows over N requests")
		breach       = flag.Bool("breach", false, "inject the §V.C.4 security breach")
		seed         = flag.Uint64("seed", 2005, "simulation seed")
	)
	flag.Parse()

	if *reservations > 0 {
		compareReservations(*reservations, *seed)
		return
	}
	if *breach {
		breachExperiment(*load, *seed)
		return
	}
	campaignScenarios(*load, *seed)
}

func campaignScenarios(load float64, seed uint64) {
	spec := campaign.PaperSpec()
	cm := campaign.PaperCostModel()
	fmt.Printf("SMD-JE production campaign: %d jobs, %d procs each\n\n", len(spec.Jobs(cm)), spec.ProcsPerJob)

	feds := map[string]*federation.Federation{
		"federated US-UK grid": federation.SPICEFederation(),
		"single site (512p)":   campaign.SingleSite("local-512", 512),
		"single site (1024p)":  campaign.SingleSite("local-1024", 1024),
	}
	for _, f := range feds {
		if err := campaign.BackgroundLoad(f, load, 24*14, seed); err != nil {
			log.Fatal(err)
		}
	}
	results, labels, err := campaign.CompareScenarios(feds, spec, cm, federation.JobConstraint{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %10s %10s %12s %10s\n", "scenario", "makespan", "days", "CPU-hours", "machines")
	for _, l := range labels {
		r := results[l]
		fmt.Printf("%-22s %9.1fh %10.2f %12.0f %10d\n", l, r.MakespanHours, r.Days(), r.TotalCPUHours, len(r.PerSite))
	}
	fed := results["federated US-UK grid"]
	fmt.Printf("\nfederation job distribution:\n")
	machines := make([]string, 0, len(fed.PerSite))
	for m := range fed.PerSite {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	for _, m := range machines {
		fmt.Printf("  %-12s %d jobs\n", m, fed.PerSite[m])
	}
	fmt.Printf("\npaper claim: 72 sims, ~75,000 CPU-hours, < 1 week on the federation → %.2f days here\n", fed.Days())
}

func compareReservations(n int, seed uint64) {
	rng := xrand.New(seed)
	fmt.Printf("advance-reservation workflows over %d cross-site requests:\n\n", n)
	fmt.Printf("%-10s %8s %8s %12s %14s\n", "workflow", "errors", "emails", "delay (h)", "interventions")
	for _, w := range []federation.ReservationWorkflow{federation.Manual, federation.WebInterface, federation.Automated} {
		o := federation.CampaignReservationCost(w, n, rng)
		fmt.Printf("%-10s %8d %8d %12.1f %14d\n", w, o.Errors, o.Emails, o.DelayHours, o.Interventions)
	}
	fmt.Println("\npaper anecdote: ~12 emails correcting 3 errors for ONE manual request (§V.C.3)")
}

func breachExperiment(load float64, seed uint64) {
	spec := campaign.PaperSpec()
	cm := campaign.PaperCostModel()

	run := func(label string, outages []federation.Outage, ukOnly bool) {
		fed := federation.SPICEFederation()
		if ukOnly {
			fed.Grids = fed.Grids[1:] // NGS only
		}
		_ = campaign.BackgroundLoad(fed, load, 24*14, seed)
		fed.Apply(outages)
		r, err := campaign.Simulate(fed, spec, cm, true, federation.JobConstraint{NeedsCrossSite: true})
		if err != nil {
			fmt.Printf("%-34s campaign IMPOSSIBLE: %v\n", label, err)
			return
		}
		fmt.Printf("%-34s %8.2f days\n", label, r.Days())
	}
	fmt.Println("failure-injection: security breach quarantines Manchester for 3 weeks (§V.C.4)")
	fmt.Println()
	run("healthy federation", nil, false)
	run("federation + breach", []federation.Outage{federation.SecurityBreach("Manchester", 24)}, false)
	run("UK NGS alone + breach", []federation.Outage{federation.SecurityBreach("Manchester", 24)}, true)
	fmt.Println("\nredundancy across the federation absorbs the outage; a single grid does not")
}
