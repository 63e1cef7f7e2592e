package dist

// Per-site health: the coordinator's live model of the paper's §V grid
// pathologies. Every worker carries a site identity (spiced -site; the
// worker name if unset), and the coordinator folds each site's
// scheduling outcomes into a health record — consecutive-failure
// strikes, a circuit breaker, and EWMAs of job latency and
// checkpoint-derived progress rate. The breaker turns the §V.C.4
// security-quarantine outage from a post-mortem anecdote into a live
// scheduling decision: a site that keeps failing or blackholing stops
// receiving work, is re-probed with a single job after a cooldown, and
// re-enters the fleet only when the probe succeeds.

import (
	"sort"
	"time"
)

// breaker states, the classic three-state circuit.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: work flows freely
	breakerOpen                         // quarantined: no work until cooldown
	breakerHalfOpen                     // probing: exactly one job in flight
)

func (b breakerState) String() string {
	switch b {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// ewmaAlpha weights new latency/rate observations; ~the last four
// observations dominate.
const ewmaAlpha = 0.25

// siteHealth is the coordinator's record for one site. All access is
// under the coordinator's mutex.
type siteHealth struct {
	name string

	// breaker
	strikes  int // consecutive failures since the last success
	state    breakerState
	openedAt time.Time
	trips    int    // closed/half-open → open transitions
	probeJob string // job ID of the in-flight half-open probe, if any

	// counters
	assignments   int
	completions   int
	failures      int // explicit fail messages
	leaseExpiries int
	disconnects   int
	specWon       int // speculations this site won
	specLost      int // leases this site lost to a hedge elsewhere

	// EWMAs
	latEWMA  time.Duration // lease grant → accepted result
	haveLat  bool
	rateEWMA float64 // checkpoint-derived steps/sec
	haveRate bool
}

func (sh *siteHealth) observeLatency(d time.Duration) {
	if !sh.haveLat {
		sh.latEWMA, sh.haveLat = d, true
		return
	}
	sh.latEWMA = time.Duration((1-ewmaAlpha)*float64(sh.latEWMA) + ewmaAlpha*float64(d))
}

func (sh *siteHealth) observeRate(r float64) {
	if !sh.haveRate {
		sh.rateEWMA, sh.haveRate = r, true
		return
	}
	sh.rateEWMA = (1-ewmaAlpha)*sh.rateEWMA + ewmaAlpha*r
}

// admissible reports whether the breaker lets this site take a new
// lease right now. An open breaker past its cooldown admits exactly one
// probe job (the open → half-open transition happens at grant time, in
// grantLocked); a half-open breaker admits nothing while its probe is
// in flight.
func (sh *siteHealth) admissible(now time.Time, cooldown time.Duration) bool {
	switch sh.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return now.Sub(sh.openedAt) >= cooldown
	default: // half-open
		return sh.probeJob == ""
	}
}

// strike records one failure signal (explicit fail, lease expiry,
// disconnect with an active lease, or a demonstrably-crawling lease
// losing a speculation race). Threshold consecutive strikes open the
// breaker; any strike while half-open re-opens it — the probe failed.
func (sh *siteHealth) strike(now time.Time, threshold int) (tripped bool) {
	sh.strikes++
	switch sh.state {
	case breakerClosed:
		if threshold > 0 && sh.strikes >= threshold {
			sh.state = breakerOpen
			sh.openedAt = now
			sh.trips++
			return true
		}
	case breakerHalfOpen:
		sh.state = breakerOpen
		sh.openedAt = now
		sh.trips++
		sh.probeJob = ""
		return true
	}
	return false
}

// success records an accepted result from the site: strikes reset and
// the breaker closes (a half-open probe that completes is the proof of
// recovery the paper's quarantined site never got to give).
func (sh *siteHealth) success() (closed bool) {
	sh.strikes = 0
	sh.probeJob = ""
	if sh.state != breakerClosed {
		sh.state = breakerClosed
		return true
	}
	return false
}

// clearProbe forgets the in-flight probe if it was job id (the probe's
// lease ended without a verdict, e.g. its conn died — strike handles
// the verdict cases).
func (sh *siteHealth) clearProbe(id string) {
	if sh.probeJob == id {
		sh.probeJob = ""
	}
}

// SiteStats is the exported per-site health snapshot.
type SiteStats struct {
	Site          string
	Assignments   int
	Completions   int
	Failures      int // explicit fail messages from this site's workers
	LeaseExpiries int
	Disconnects   int
	SpecWon       int // speculation races this site won
	SpecLost      int // leases this site lost to a hedge elsewhere
	// Breaker is the current state: "closed", "open" or "half-open".
	Breaker string
	// BreakerTrips counts transitions into open (quarantine events).
	BreakerTrips int
	// Strikes is the current consecutive-failure count.
	Strikes int
	// RateEWMA is the site's smoothed checkpoint-derived progress rate
	// in steps/sec (0 until the first checkpoint delta is observed).
	RateEWMA float64
	// LatencyEWMA is the smoothed lease-grant → result latency.
	LatencyEWMA time.Duration
}

// SiteStats returns the per-site health table keyed by site name.
func (co *Coordinator) SiteStats() map[string]SiteStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.siteStatsLocked()
}

func (co *Coordinator) siteStatsLocked() map[string]SiteStats {
	out := make(map[string]SiteStats, len(co.sites))
	for name, sh := range co.sites {
		st := SiteStats{
			Site:          name,
			Assignments:   sh.assignments,
			Completions:   sh.completions,
			Failures:      sh.failures,
			LeaseExpiries: sh.leaseExpiries,
			Disconnects:   sh.disconnects,
			SpecWon:       sh.specWon,
			SpecLost:      sh.specLost,
			Breaker:       sh.state.String(),
			BreakerTrips:  sh.trips,
			Strikes:       sh.strikes,
		}
		if sh.haveRate {
			st.RateEWMA = sh.rateEWMA
		}
		if sh.haveLat {
			st.LatencyEWMA = sh.latEWMA
		}
		out[name] = st
	}
	return out
}

// siteLocked returns (creating if needed) the health record for a site.
// Caller holds mu.
func (co *Coordinator) siteLocked(name string) *siteHealth {
	if name == "" {
		name = "?"
	}
	sh := co.sites[name]
	if sh == nil {
		sh = &siteHealth{name: name}
		co.sites[name] = sh
	}
	return sh
}

// fleetMedianRate returns the upper median of all sites' progress-rate
// EWMAs, and whether at least two sites have one — the comparison basis
// for rate-based straggler detection. Using site EWMAs rather than only
// live leases keeps the baseline meaningful after fast sites drain the
// queue and idle. Caller holds mu.
func (co *Coordinator) fleetMedianRate() (float64, bool) {
	rates := make([]float64, 0, len(co.sites))
	for _, sh := range co.sites {
		if sh.haveRate {
			rates = append(rates, sh.rateEWMA)
		}
	}
	if len(rates) < 2 {
		return 0, false
	}
	sort.Float64s(rates)
	return rates[len(rates)/2], true
}
