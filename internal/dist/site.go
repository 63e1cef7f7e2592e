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

// breakerThreshold is the count of strikes in a row (explicit fails,
// lease expiries, disconnects with an active lease, lost speculations
// with streamed progress) that opens a site's circuit breaker.
const breakerThreshold = 3

// ewmaAlpha weights new latency/rate observations; ~the last four
// observations dominate.
const ewmaAlpha = 0.25

// ewma is an exponentially weighted moving average, seeded by its first
// observation; v is 0 and ok false until then.
type ewma[T float64 | time.Duration] struct {
	v  T
	ok bool
}

func (e *ewma[T]) observe(x T) {
	if !e.ok {
		e.v, e.ok = x, true
		return
	}
	e.v = T((1-ewmaAlpha)*float64(e.v) + ewmaAlpha*float64(x))
}

// siteHealth is the coordinator's record for one site: the exported
// counters, live (Site, Strikes — consecutive failures since the last
// success — and BreakerTrips among them), plus the breaker and the
// averages that snapshot renders into the remaining SiteStats fields.
type siteHealth struct {
	SiteStats

	state    breakerState
	openedAt time.Time
	probeJob string // job ID of the in-flight half-open probe, if any

	latency ewma[time.Duration] // lease grant → accepted result
	rate    ewma[float64]       // checkpoint-derived steps/sec
}

// snapshot is the site's exported view.
func (sh *siteHealth) snapshot() SiteStats {
	st := sh.SiteStats
	st.Breaker = sh.state.String()
	st.RateEWMA, st.LatencyEWMA = sh.rate.v, sh.latency.v
	return st
}

// admissible reports whether the breaker lets this site take a new
// lease right now. An open breaker past its cooldown admits exactly one
// probe job (the open → half-open transition happens at grant time, in
// granted); a half-open breaker admits nothing while its probe is in
// flight.
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
// losing a speculation race). breakerThreshold consecutive strikes open
// the breaker; any strike while half-open re-opens it — the probe failed.
func (sh *siteHealth) strike(now time.Time) (tripped bool) {
	sh.Strikes++
	switch sh.state {
	case breakerClosed:
		if sh.Strikes >= breakerThreshold {
			sh.state = breakerOpen
			sh.openedAt = now
			sh.BreakerTrips++
			return true
		}
	case breakerHalfOpen:
		sh.state = breakerOpen
		sh.openedAt = now
		sh.BreakerTrips++
		sh.probeJob = ""
		return true
	}
	return false
}

// granted books a new lease of job id on the site. On an open breaker
// the lease is the half-open probe (admissible gated on the cooldown)
// and probe is true; a second lease is refused while it is out.
func (sh *siteHealth) granted(id string) (probe bool) {
	if sh.state == breakerOpen {
		sh.state = breakerHalfOpen
		probe = true
	}
	if sh.state == breakerHalfOpen && sh.probeJob == "" {
		sh.probeJob = id
	}
	sh.Assignments++
	return probe
}

// success records an accepted result from the site: strikes reset and
// the breaker closes (a half-open probe that completes is the proof of
// recovery the paper's quarantined site never got to give).
func (sh *siteHealth) success() (closed bool) {
	sh.Strikes = 0
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

// siteTable holds the health record of every site seen so far, by name.
type siteTable map[string]*siteHealth

// get returns (creating if needed) the health record for a site.
func (st siteTable) get(name string) *siteHealth {
	if name == "" {
		name = "?"
	}
	sh := st[name]
	if sh == nil {
		sh = &siteHealth{SiteStats: SiteStats{Site: name}}
		st[name] = sh
	}
	return sh
}

// snapshot returns the exported per-site table.
func (st siteTable) snapshot() map[string]SiteStats {
	out := make(map[string]SiteStats, len(st))
	for name, sh := range st {
		out[name] = sh.snapshot()
	}
	return out
}

// medianRate returns the upper median of all sites' progress-rate
// EWMAs, and whether at least two sites have one — the comparison basis
// for rate-based straggler detection. Using site EWMAs rather than only
// live leases keeps the baseline meaningful after fast sites drain the
// queue and idle.
func (st siteTable) medianRate() (float64, bool) {
	rates := make([]float64, 0, len(st))
	for _, sh := range st {
		if sh.rate.ok {
			rates = append(rates, sh.rate.v)
		}
	}
	if len(rates) < 2 {
		return 0, false
	}
	sort.Float64s(rates)
	return rates[len(rates)/2], true
}

// straggling judges a job's sole lease, once it is older than
// HedgeAfter (short jobs are never hedged): its checkpoint-derived
// progress rate is below HedgeFraction of the median site rate. A lease
// that heartbeats but never streams a checkpoint has no rate, so it is
// never hedged.
func straggling(cfg *Config, l *lease, now time.Time, median float64, haveMedian bool) bool {
	return cfg.HedgeFraction > 0 && now.Sub(l.granted) >= cfg.HedgeAfter &&
		haveMedian && l.rate.ok && l.rate.v < cfg.HedgeFraction*median
}
