package federation

import (
	"testing"

	"spice/internal/grid"
	"spice/internal/xrand"
)

func TestSPICEFederationTopology(t *testing.T) {
	f := SPICEFederation()
	if len(f.Grids) != 2 {
		t.Fatalf("grids = %d", len(f.Grids))
	}
	sites := f.Sites()
	if len(sites) != 8 {
		t.Fatalf("sites = %d, want 8 (3 TeraGrid + 5 NGS)", len(sites))
	}
	byName := make(map[string]*Site)
	for _, s := range sites {
		byName[s.Name] = s
	}
	// PSC: hidden IP but usable through gateways.
	psc := byName["PSC"]
	if psc == nil || !psc.HiddenIP || !psc.SupportsCrossSite() {
		t.Fatalf("PSC config wrong: %+v", psc)
	}
	if mbps, relayed := psc.RelayBandwidth(); !relayed || mbps != 1000 {
		t.Fatalf("PSC relay bandwidth = %v, %v", mbps, relayed)
	}
	// HPCx: hidden IP, no gateways → unusable for cross-site work.
	hpcx := byName["HPCx"]
	if hpcx == nil || hpcx.SupportsCrossSite() {
		t.Fatal("HPCx should be unusable cross-site")
	}
	// Direct sites report no relay.
	if _, relayed := byName["NCSA"].RelayBandwidth(); relayed {
		t.Fatal("NCSA should be direct")
	}
	if f.TotalProcs() <= 0 {
		t.Fatal("no processors")
	}
}

func TestJobConstraintEligibility(t *testing.T) {
	f := SPICEFederation()
	byName := make(map[string]*Site)
	for _, s := range f.Sites() {
		byName[s.Name] = s
	}
	cross := JobConstraint{NeedsCrossSite: true}
	if !cross.Eligible(byName["PSC"]) {
		t.Fatal("PSC with gateways should be eligible for cross-site")
	}
	if cross.Eligible(byName["HPCx"]) {
		t.Fatal("HPCx should be ineligible for cross-site")
	}
	udp := JobConstraint{NeedsCrossSite: true, NeedsUDP: true}
	if udp.Eligible(byName["PSC"]) {
		t.Fatal("gateway relays do not forward UDP (§V.C.1)")
	}
	light := JobConstraint{NeedsLightpath: true}
	if light.Eligible(byName["Oxford"]) {
		t.Fatal("Oxford has no lightpath in the model")
	}
	if !light.Eligible(byName["Manchester"]) {
		t.Fatal("Manchester had the lightpath")
	}
	light.Exclude = map[string]bool{"Manchester": true}
	if light.Eligible(byName["Manchester"]) || !light.Eligible(byName["NCSA"]) {
		t.Fatal("Exclude must rule out exactly the named sites")
	}
}

func TestSchedulerSpreadsLoad(t *testing.T) {
	f := SPICEFederation()
	s := NewScheduler(f, true)
	machines := make(map[string]int)
	for i := 0; i < 24; i++ {
		p, _, err := s.Submit(&grid.Job{ID: "j", Procs: 128, Hours: 8}, JobConstraint{NeedsCrossSite: true})
		if err != nil {
			t.Fatal(err)
		}
		machines[p.Machine.Name]++
	}
	if len(machines) < 3 {
		t.Fatalf("federated scheduler used only %d machines: %v", len(machines), machines)
	}
	// Nothing lands on HPCx.
	if machines["hpcx"] > 0 {
		t.Fatal("cross-site jobs placed on HPCx")
	}
}

func TestSchedulerRejectsImpossibleJob(t *testing.T) {
	f := SPICEFederation()
	s := NewScheduler(f, true)
	// Needs more procs than any single machine has.
	if _, _, err := s.Submit(&grid.Job{ID: "huge", Procs: 4096, Hours: 1}, JobConstraint{}); err == nil {
		t.Fatal("oversized job placed")
	}
	// Lightpath + UDP + cross-site: only direct lightpath sites remain.
	p, site, err := s.Submit(&grid.Job{ID: "imd", Procs: 256, Hours: 1},
		JobConstraint{NeedsCrossSite: true, NeedsLightpath: true, NeedsUDP: true})
	if err != nil {
		t.Fatal(err)
	}
	if site.HiddenIP || !site.Lightpath {
		t.Fatalf("IMD job landed on %s", site.Name)
	}
	_ = p
}

func TestCoAllocate(t *testing.T) {
	f := SPICEFederation()
	sites := f.Sites()[:3] // NCSA, SDSC, PSC
	// Pre-load NCSA so the common window moves later.
	if err := sites[0].Machine.Reserve(0, 10, 1024); err != nil {
		t.Fatal(err)
	}
	start, err := CoAllocate(sites, []int{512, 256, 256}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 10 {
		t.Fatalf("co-allocation start = %v, want 10 (after NCSA drains)", start)
	}
	// The reservations are actually booked.
	for i, s := range sites {
		procs := []int{512, 256, 256}[i]
		if s.Machine.Utilization(start+4) == 0 {
			t.Fatalf("%s not reserved (procs=%d)", s.Name, procs)
		}
	}
	// Degenerate input.
	if _, err := CoAllocate(nil, nil, 1, 0); err == nil {
		t.Fatal("empty co-allocation accepted")
	}
	if _, err := CoAllocate(sites, []int{1}, 1, 0); err == nil {
		t.Fatal("mismatched co-allocation accepted")
	}
	// Impossible demand.
	if _, err := CoAllocate(sites, []int{99999, 1, 1}, 1, 0); err == nil {
		t.Fatal("oversized co-allocation accepted")
	}
}

func TestReservationWorkflows(t *testing.T) {
	rng := xrand.New(42)
	const n = 500
	manual := CampaignReservationCost(Manual, n, rng)
	web := CampaignReservationCost(WebInterface, n, rng)
	auto := CampaignReservationCost(Automated, n, rng)
	// Strict ordering of human cost.
	if !(manual.Errors > web.Errors && web.Errors > auto.Errors) {
		t.Fatalf("error ordering wrong: manual=%d web=%d auto=%d", manual.Errors, web.Errors, auto.Errors)
	}
	if !(manual.Interventions > web.Interventions && web.Interventions >= auto.Interventions) {
		t.Fatalf("intervention ordering wrong")
	}
	if !(manual.DelayHours > web.DelayHours && web.DelayHours > auto.DelayHours) {
		t.Fatalf("delay ordering wrong")
	}
	// Calibration: the paper's anecdote is ~3 errors and ~a dozen emails
	// per manual request.
	perReq := float64(manual.Errors) / n
	if perReq < 1.5 || perReq > 4.5 {
		t.Fatalf("manual errors/request = %v, want ~3", perReq)
	}
	emails := float64(manual.Emails) / n
	if emails < 6 || emails > 18 {
		t.Fatalf("manual emails/request = %v, want ~12", emails)
	}
	// Automated workflow processes cleanly almost always.
	if float64(auto.Errors)/n > 0.05 {
		t.Fatalf("automated error rate too high: %d/%d", auto.Errors, n)
	}
}

func TestOutageApplication(t *testing.T) {
	f := SPICEFederation()
	breach := SecurityBreach("Manchester", 48)
	if breach.Hours != 21*24 {
		t.Fatalf("breach duration = %v", breach.Hours)
	}
	f.Apply([]Outage{breach})
	var man *Site
	for _, s := range f.Sites() {
		if s.Name == "Manchester" {
			man = s
		}
	}
	start, err := man.Machine.EarliestStart(48, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if start != 48+21*24 {
		t.Fatalf("job during quarantine starts at %v", start)
	}
}

func TestWorkflowStrings(t *testing.T) {
	if Manual.String() != "manual" || WebInterface.String() != "web" || Automated.String() != "automated" {
		t.Fatal("workflow labels")
	}
}
