// Package federation models the grid-of-grids SPICE ran on (Fig. 5 of the
// paper): the US TeraGrid (NCSA, SDSC, PSC) federated with the UK National
// Grid Service, including the pathologies §V documents — hidden-IP
// compute nodes reachable only through gateway relays, heterogeneous
// middleware dialects, manual advance-reservation workflows with human
// error, and single-point-of-failure outages.
package federation

import (
	"errors"
	"fmt"

	"spice/internal/grid"
)

// Middleware labels a grid's software stack dialect. The paper's barrier
// to federation is "the varying levels of evolution and maturity of the
// constituent grids"; a job prepared for one dialect needs per-grid
// adaptation work.
type Middleware string

// Middleware dialects of the 2005-era stacks.
const (
	GT2     Middleware = "globus-2"     // TeraGrid and NGS common ground
	GT4     Middleware = "globus-4"     // partially deployed
	Unicore Middleware = "unicore"      // continental European stacks
	Bespoke Middleware = "bespoke-site" // one-off site configurations
)

// Site is one resource provider within a grid.
type Site struct {
	Name    string
	Machine *grid.Machine
	// HiddenIP marks compute nodes that are not externally addressable
	// (§V.C.1). Cross-site communication from such a site requires a
	// gateway relay.
	HiddenIP bool
	// Gateways is the number of access-gateway relay nodes available
	// (PSC's qsocket/Access Gateway solution); 0 with HiddenIP means
	// cross-site jobs simply cannot run here.
	Gateways int
	// GatewayMbps is the per-gateway relay bandwidth.
	GatewayMbps float64
	// Lightpath reports whether the optical lightpath (UKLight/GLIF)
	// is deployed and functional at this site (§V.C.2).
	Lightpath bool
}

// SupportsCrossSite reports whether a job needing external connectivity
// can run at the site.
func (s *Site) SupportsCrossSite() bool { return !s.HiddenIP || s.Gateways > 0 }

// RelayBandwidth returns the aggregate gateway bandwidth in Mbps for
// hidden-IP sites (direct sites return +Inf semantics via ok=false).
func (s *Site) RelayBandwidth() (mbps float64, relayed bool) {
	if !s.HiddenIP {
		return 0, false
	}
	return float64(s.Gateways) * s.GatewayMbps, true
}

// Grid is one administrative grid (TeraGrid, NGS).
type Grid struct {
	Name       string
	Middleware Middleware
	Sites      []*Site
}

// Federation is the grid-of-grids.
type Federation struct {
	Grids []*Grid
}

// Sites returns every site in every grid, in declaration order.
func (f *Federation) Sites() []*Site {
	var out []*Site
	for _, g := range f.Grids {
		out = append(out, g.Sites...)
	}
	return out
}

// TotalProcs sums processors across the federation.
func (f *Federation) TotalProcs() int {
	n := 0
	for _, s := range f.Sites() {
		n += s.Machine.Procs
	}
	return n
}

// SPICEFederation builds the Fig. 5 topology: the TeraGrid subset SPICE
// used (NCSA, SDSC, PSC) plus the UK NGS high-end nodes. Processor counts
// follow the 2005-era allocations (order-of-magnitude faithful); PSC runs
// hidden IPs with its Access Gateway solution; HPCx is present but
// unusable (hidden IP without relay + no lightpath), as the paper reports.
func SPICEFederation() *Federation {
	mk := func(name string, procs int, site string) *grid.Machine {
		m := grid.NewMachine(name, procs)
		m.Site = site
		return m
	}
	teragrid := &Grid{
		Name:       "US TeraGrid",
		Middleware: GT2,
		Sites: []*Site{
			{Name: "NCSA", Machine: mk("ncsa-ia64", 1024, "NCSA"), Lightpath: true},
			{Name: "SDSC", Machine: mk("sdsc-ia64", 512, "SDSC"), Lightpath: true},
			{Name: "PSC", Machine: mk("psc-alpha", 768, "PSC"), HiddenIP: true, Gateways: 4, GatewayMbps: 250, Lightpath: true},
		},
	}
	ngs := &Grid{
		Name:       "UK NGS",
		Middleware: GT2,
		Sites: []*Site{
			{Name: "Manchester", Machine: mk("ngs-man", 256, "Manchester"), Lightpath: true},
			{Name: "Oxford", Machine: mk("ngs-ox", 128, "Oxford"), Lightpath: false},
			{Name: "Leeds", Machine: mk("ngs-leeds", 128, "Leeds"), Lightpath: false},
			{Name: "RAL", Machine: mk("ngs-ral", 256, "RAL"), Lightpath: false},
			// HPCx: "there were additional problems which contributed
			// to its not being usable (e.g., the hidden IP address
			// problem)".
			{Name: "HPCx", Machine: mk("hpcx", 1024, "HPCx"), HiddenIP: true, Gateways: 0, Lightpath: false},
		},
	}
	return &Federation{Grids: []*Grid{teragrid, ngs}}
}

// JobConstraint filters which sites may host a job.
type JobConstraint struct {
	// NeedsCrossSite requires external connectivity (steering,
	// MPICH-G2 spanning, visualization coupling).
	NeedsCrossSite bool
	// NeedsLightpath requires the optical path (interactive sessions).
	NeedsLightpath bool
	// NeedsUDP excludes gateway-relayed sites: the PSC relay "does not
	// support UDP-based traffic".
	NeedsUDP bool
	// Exclude names sites the job must avoid — the machines that killed
	// its earlier attempts.
	Exclude map[string]bool
}

// Eligible reports whether site s satisfies the constraint.
func (c JobConstraint) Eligible(s *Site) bool {
	if c.NeedsCrossSite && !s.SupportsCrossSite() {
		return false
	}
	if c.NeedsLightpath && !s.Lightpath {
		return false
	}
	if c.NeedsUDP && s.HiddenIP {
		return false
	}
	return !c.Exclude[s.Name]
}

// Scheduler places jobs across the federation, greedily choosing the site
// with the earliest completion time among eligible sites.
type Scheduler struct {
	Fed      *Federation
	Backfill bool

	queues map[*Site]*grid.Queue
}

// NewScheduler builds a federated scheduler.
func NewScheduler(f *Federation, backfill bool) *Scheduler {
	s := &Scheduler{Fed: f, Backfill: backfill, queues: make(map[*Site]*grid.Queue)}
	for _, site := range f.Sites() {
		s.queues[site] = grid.NewQueue(site.Machine, backfill)
	}
	return s
}

// Submit places one job and returns its placement and the hosting site.
func (s *Scheduler) Submit(j *grid.Job, c JobConstraint) (grid.Placement, *Site, error) {
	var bestSite *Site
	bestEnd := 0.0
	for _, site := range s.Fed.Sites() {
		if !c.Eligible(site) {
			continue
		}
		start, err := site.Machine.EarliestStart(j.Submit, j.Hours, j.Procs)
		if err != nil {
			continue
		}
		end := start + j.Hours
		if bestSite == nil || end < bestEnd {
			bestSite, bestEnd = site, end
		}
	}
	if bestSite == nil {
		return grid.Placement{}, nil, fmt.Errorf("federation: no eligible site for job %s (%d procs)", j.ID, j.Procs)
	}
	p, err := s.queues[bestSite].Submit(j)
	if err != nil {
		return grid.Placement{}, nil, err
	}
	return p, bestSite, nil
}

// CoAllocate finds the earliest common start at which every listed site
// can simultaneously reserve procs[i] processors for hours, then books all
// reservations. This is the cross-site reservation primitive the paper
// says was handled "by hand" with error-prone email exchanges.
func CoAllocate(sites []*Site, procs []int, hours, after float64) (float64, error) {
	if len(sites) == 0 || len(sites) != len(procs) {
		return 0, errors.New("federation: co-allocation input mismatch")
	}
	ms := make([]*grid.Machine, len(sites))
	for i, s := range sites {
		ms[i] = s.Machine
	}
	t, err := coReserve(ms, procs, hours, after)
	if err != nil {
		return 0, fmt.Errorf("federation: co-allocation: %w", err)
	}
	return t, nil
}

// coReserve finds the earliest common start at or after `after` at which
// every machine can hold procs[i] processors for hours, and books them
// all: each machine is asked for its earliest start at or after the
// candidate, and the candidate moves to the latest answer until none
// moves it.
func coReserve(ms []*grid.Machine, procs []int, hours, after float64) (float64, error) {
	t := after
	for iter := 0; iter < 10000; iter++ {
		next := t
		for i, m := range ms {
			st, err := m.EarliestStart(t, hours, procs[i])
			if err != nil {
				return 0, err
			}
			next = max(next, st)
		}
		if next == t {
			for i, m := range ms {
				if err := m.Reserve(t, hours, procs[i]); err != nil {
					return 0, err
				}
			}
			return t, nil
		}
		t = next
	}
	return 0, errors.New("federation: co-reservation did not converge")
}
