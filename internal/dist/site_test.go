package dist

// Socket-free, sleep-free tests of site health (site.go): the breaker,
// the fleet median and the straggler predicate, driven with explicit
// times.

import (
	"testing"
	"time"
)

// TestBreakerStateMachine drives siteHealth through the full
// closed → open → half-open → closed circuit, plus the probe-failure
// re-open edge.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Now()
	cooldown := 50 * time.Millisecond
	sh := &siteHealth{SiteStats: SiteStats{Site: "s"}}

	// Closed: strikes below threshold neither trip nor quarantine.
	if sh.strike(now) {
		t.Fatal("first strike tripped a threshold-3 breaker")
	}
	if sh.strike(now) {
		t.Fatal("second strike tripped a threshold-3 breaker")
	}
	if !sh.admissible(now, cooldown) {
		t.Fatal("closed breaker not admissible")
	}

	// A success resets the consecutive count; the next strike starts over.
	if sh.success() {
		t.Fatal("success on a closed breaker reported a close transition")
	}
	if sh.Strikes != 0 {
		t.Fatalf("strikes = %d after success, want 0", sh.Strikes)
	}

	// Threshold consecutive strikes open it.
	sh.strike(now)
	sh.strike(now)
	if !sh.strike(now) {
		t.Fatal("third consecutive strike did not trip")
	}
	if sh.state != breakerOpen || sh.BreakerTrips != 1 {
		t.Fatalf("state = %v trips = %d after trip", sh.state, sh.BreakerTrips)
	}

	// Open: quarantined until the cooldown elapses.
	if sh.admissible(now, cooldown) {
		t.Fatal("open breaker admissible before cooldown")
	}
	later := now.Add(cooldown)
	if !sh.admissible(later, cooldown) {
		t.Fatal("open breaker not admissible after cooldown")
	}

	// Grant-time transition: open → half-open with a probe job; a second
	// grant is refused while the probe is out.
	if !sh.granted("j1") || sh.state != breakerHalfOpen || sh.probeJob != "j1" {
		t.Fatalf("grant on a cooled-down open breaker: state = %v probe = %q, want the half-open probe", sh.state, sh.probeJob)
	}
	if sh.admissible(later, cooldown) {
		t.Fatal("half-open breaker admissible with a probe in flight")
	}

	// Probe failure re-opens immediately, at any strike count.
	if !sh.strike(later) {
		t.Fatal("strike during half-open did not re-open")
	}
	if sh.state != breakerOpen || sh.BreakerTrips != 2 || sh.probeJob != "" {
		t.Fatalf("after probe failure: state = %v trips = %d probe = %q", sh.state, sh.BreakerTrips, sh.probeJob)
	}

	// Probe success closes and resets.
	sh.state = breakerHalfOpen
	sh.probeJob = "j2"
	sh.Strikes = 5
	if !sh.success() {
		t.Fatal("success on half-open did not report a close")
	}
	if sh.state != breakerClosed || sh.Strikes != 0 || sh.probeJob != "" {
		t.Fatalf("after probe success: state = %v strikes = %d probe = %q", sh.state, sh.Strikes, sh.probeJob)
	}

	// clearProbe only forgets its own job.
	sh.state = breakerHalfOpen
	sh.probeJob = "j3"
	sh.clearProbe("other")
	if sh.probeJob != "j3" {
		t.Fatal("clearProbe(other) cleared the wrong probe")
	}
	sh.clearProbe("j3")
	if sh.probeJob != "" {
		t.Fatal("clearProbe(j3) did not clear")
	}
}

// TestFleetMedianRate checks the straggler baseline: no median below
// two observed sites, upper median above.
func TestFleetMedianRate(t *testing.T) {
	sites := make(siteTable)
	if _, ok := sites.medianRate(); ok {
		t.Fatal("median reported with zero sites")
	}
	sites.get("a").rate.observe(100)
	if _, ok := sites.medianRate(); ok {
		t.Fatal("median reported with one site")
	}
	sites.get("b").rate.observe(10)
	if m, ok := sites.medianRate(); !ok || m != 100 {
		t.Fatalf("median of {10, 100} = %v, %v; want upper median 100", m, ok)
	}
	sites.get("c").rate.observe(50)
	if m, ok := sites.medianRate(); !ok || m != 50 {
		t.Fatalf("median of {10, 50, 100} = %v, %v; want 50", m, ok)
	}
}

// TestSiteBreakerSingleProbe: past the cooldown an open breaker admits
// exactly one lease — the probe — however many workers of the site poll,
// and the probe ending without a verdict (its connection died) lets the
// next one through without closing the breaker.
func TestSiteBreakerSingleProbe(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cooldown := time.Minute
	sh := make(siteTable).get("s")
	for i := 0; i < 3; i++ {
		sh.strike(t0)
	}
	if sh.state != breakerOpen || sh.admissible(t0.Add(cooldown-1), cooldown) {
		t.Fatalf("state %v one tick before the cooldown ends: want open and closed to work", sh.state)
	}
	at := t0.Add(cooldown)
	if !sh.admissible(at, cooldown) {
		t.Fatal("not admissible exactly at the cooldown")
	}
	if !sh.granted("probe") {
		t.Fatal("first grant after the cooldown is not the probe")
	}
	if sh.admissible(at, cooldown) || sh.admissible(at.Add(time.Hour), cooldown) {
		t.Fatal("a second lease is admitted while the probe is out")
	}
	sh.clearProbe("probe")
	if !sh.admissible(at, cooldown) || sh.state != breakerHalfOpen {
		t.Fatalf("probe gone without verdict: state %v, want half-open and admissible", sh.state)
	}
	if sh.granted("probe2") {
		t.Fatal("a grant on a half-open breaker reported the open → half-open transition again")
	}
	if sh.probeJob != "probe2" || sh.Assignments != 2 {
		t.Fatalf("probe %q assignments %d, want probe2 and 2", sh.probeJob, sh.Assignments)
	}
}

// TestSiteSnapshot: the exported view is the embedded counters plus the
// breaker state and the averages, which read 0 until first observed.
func TestSiteSnapshot(t *testing.T) {
	sites := make(siteTable)
	sh := sites.get("")
	if st := sites.snapshot()["?"]; st != (SiteStats{Site: "?", Breaker: "closed"}) {
		t.Fatalf("fresh unnamed site = %+v", st)
	}
	sh.Completions, sh.SpecLost = 3, 1
	for i := 0; i < 3; i++ {
		sh.strike(time.Unix(5, 0))
	}
	sh.rate.observe(100)
	sh.rate.observe(200)
	sh.latency.observe(4 * time.Second)
	sh.latency.observe(8 * time.Second)
	want := SiteStats{Site: "?", Completions: 3, SpecLost: 1, Strikes: 3, BreakerTrips: 1,
		Breaker: "open", RateEWMA: 125, LatencyEWMA: 5 * time.Second}
	if st := sites.snapshot()["?"]; st != want {
		t.Fatalf("snapshot = %+v, want %+v", st, want)
	}
}

// TestStragglingPredicate: a lease straggles when its rate is below
// HedgeFraction of the fleet median, which it needs; the verdict never
// applies to a lease younger than HedgeAfter or with the trigger at 0.
func TestStragglingPredicate(t *testing.T) {
	now := time.Unix(1000, 0)
	old, young := now.Add(-10*time.Second), now.Add(-time.Second)
	crawl := ewma[float64]{v: 10, ok: true}
	for _, tc := range []struct {
		name       string
		cfg        Config
		l          lease
		median     float64
		haveMedian bool
		want       bool
	}{
		{"slow against the median", Config{HedgeAfter: 5 * time.Second, HedgeFraction: 0.3},
			lease{granted: old, stepsAt: now, rate: crawl}, 100, true, true},
		{"at the fraction is not below it", Config{HedgeAfter: 5 * time.Second, HedgeFraction: 0.1},
			lease{granted: old, stepsAt: now, rate: crawl}, 100, true, false},
		{"no median, no slow verdict", Config{HedgeAfter: 5 * time.Second, HedgeFraction: 0.3},
			lease{granted: old, stepsAt: now, rate: crawl}, 0, false, false},
		{"no rate yet, no slow verdict", Config{HedgeAfter: 5 * time.Second, HedgeFraction: 0.3},
			lease{granted: old, stepsAt: now}, 100, true, false},
		{"younger than HedgeAfter", Config{HedgeAfter: 5 * time.Second, HedgeFraction: 0.3},
			lease{granted: young, stepsAt: young, rate: crawl}, 100, true, false},
		{"HedgeFraction 0", Config{HedgeAfter: 5 * time.Second},
			lease{granted: old, stepsAt: old, rate: crawl}, 100, true, false},
	} {
		if got := straggling(&tc.cfg, &tc.l, now, tc.median, tc.haveMedian); got != tc.want {
			t.Errorf("%s: straggling %v, want %v", tc.name, got, tc.want)
		}
	}
}
