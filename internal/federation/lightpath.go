package federation

import (
	"errors"
	"fmt"

	"spice/internal/grid"
)

// LightpathLink is a dedicated optical circuit between two sites (a
// UKLight/GLIF lambda). Unlike packet networks it is circuit-switched: a
// session books the whole circuit for its duration, so lightpaths must be
// co-scheduled with the compute and visualization resources they connect —
// the coordination problem the paper's §V.C.6 flags as the open issue
// ("sooner or later, demand for lightpaths will increase and we will be
// faced with ... coordinating and co-scheduling lightpaths with compute
// resources").
type LightpathLink struct {
	A, B string // site names (order-insensitive)
	Mbps float64
	// calendar reuses the machine scheduler with capacity 1 — one
	// session at a time on a circuit.
	calendar *grid.Machine
}

// NewLightpathLink returns a circuit between sites a and b.
func NewLightpathLink(a, b string, mbps float64) *LightpathLink {
	return &LightpathLink{A: a, B: b, Mbps: mbps, calendar: grid.NewMachine(a+"<->"+b, 1)}
}

// Connects reports whether the link joins sites a and b (either order).
func (l *LightpathLink) Connects(a, b string) bool {
	return (l.A == a && l.B == b) || (l.A == b && l.B == a)
}

// LightpathFabric is the set of provisioned circuits.
type LightpathFabric struct {
	Links []*LightpathLink
}

// SPICEFabric provisions the circuits the project had: UCL's UKLight
// connections to the lightpath-enabled TeraGrid sites via the GLIF
// exchange, plus the Manchester leg on the UK side.
func SPICEFabric() *LightpathFabric {
	return &LightpathFabric{Links: []*LightpathLink{
		NewLightpathLink("UCL", "NCSA", 10000),
		NewLightpathLink("UCL", "SDSC", 10000),
		NewLightpathLink("UCL", "PSC", 10000),
		NewLightpathLink("UCL", "Manchester", 10000),
	}}
}

// Find returns the circuit joining a and b, if provisioned.
func (f *LightpathFabric) Find(a, b string) (*LightpathLink, bool) {
	for _, l := range f.Links {
		if l.Connects(a, b) {
			return l, true
		}
	}
	return nil, false
}

// InteractiveSession is a co-scheduled interactive run: compute at the
// simulation site, a visualization host at the viz site, and the lightpath
// between them, all reserved for the same window.
type InteractiveSession struct {
	SimSite *Site
	VizSite string
	Procs   int
	Hours   float64
	Start   float64
	Link    *LightpathLink
}

// CoScheduleInteractive books an interactive session: it finds the
// earliest window at which the simulation site can provide procs
// processors AND the circuit to the visualization site is free, then
// reserves both. It fails when the site has no lightpath, no circuit is
// provisioned, or (hidden-IP without relay) the site cannot reach the
// visualizer at all.
func CoScheduleInteractive(fabric *LightpathFabric, sim *Site, vizSite string, procs int, hours, after float64) (*InteractiveSession, error) {
	if fabric == nil {
		return nil, errors.New("federation: nil lightpath fabric")
	}
	if !sim.Lightpath {
		return nil, fmt.Errorf("federation: %s has no functional lightpath deployment (§V.C.2)", sim.Name)
	}
	if !sim.SupportsCrossSite() {
		return nil, fmt.Errorf("federation: %s cannot host cross-site sessions (hidden IPs, no gateway)", sim.Name)
	}
	link, ok := fabric.Find(sim.Name, vizSite)
	if !ok {
		return nil, fmt.Errorf("federation: no circuit provisioned between %s and %s", sim.Name, vizSite)
	}
	start, err := coReserve([]*grid.Machine{sim.Machine, link.calendar}, []int{procs, 1}, hours, after)
	if err != nil {
		return nil, err
	}
	return &InteractiveSession{
		SimSite: sim, VizSite: vizSite, Procs: procs,
		Hours: hours, Start: start, Link: link,
	}, nil
}

// CircuitUtilization reports the booked fraction of a circuit over the
// horizon — the capacity-planning number behind "demand for lightpaths
// will increase".
func (l *LightpathLink) CircuitUtilization(horizon float64) float64 {
	return l.calendar.Utilization(horizon)
}
