// Package statsfmt renders dist stats snapshots as human-readable
// tables: one renderer over the one Snapshot struct, so the console
// view, the /metrics view and test assertions all read the same
// numbers. A job's lease history is not a table here; the coordinator's
// event log tells it.
package statsfmt

import (
	"fmt"
	"io"
	"sort"

	"spice/internal/dist"
)

// Summary writes the campaign counter lines: the scheduling totals
// always, the recovery and resilience lines only when they have
// something to say. prefix is prepended to every line (callers indent
// with "  " or tag with "dist ").
func Summary(w io.Writer, s dist.Stats, prefix string) {
	fmt.Fprintf(w, "%s%d jobs, %d assignments (%d retries, %d resumes), %d lease expiries, %d KiB in / %d KiB out\n",
		prefix, s.Jobs, s.Assignments, s.Retries, s.Resumes, s.LeaseExpiries, s.BytesIn/1024, s.BytesOut/1024)
	if s.Restarts > 0 || s.DuplicateResultsDropped > 0 || s.Adoptions > 0 {
		fmt.Fprintf(w, "%srecovery: %d restart(s), %d journal records replayed, %d adoptions, %d duplicate results dropped\n",
			prefix, s.Restarts, s.ReplayedRecords, s.Adoptions, s.DuplicateResultsDropped)
	}
	if s.TornTail != dist.TailClean {
		fmt.Fprintf(w, "%srecovery: dropped %d-byte %s journal tail (%s)\n",
			prefix, s.TruncatedTailBytes, s.TornTail, s.TornTailMsg)
	}
	if s.StragglersDetected > 0 || s.SpeculationsLaunched > 0 || s.BreakerTrips > 0 {
		fmt.Fprintf(w, "%sresilience: %d straggler(s), %d speculation(s) (%d won, %d wasted), %d breaker trip(s) / %d probe(s) / %d close(s)\n",
			prefix, s.StragglersDetected, s.SpeculationsLaunched, s.SpeculationsWon, s.SpeculationsWasted,
			s.BreakerTrips, s.BreakerProbes, s.BreakerCloses)
	}
	if s.RequestsShed > 0 {
		fmt.Fprintf(w, "%soverload: %d poll(s) shed\n", prefix, s.RequestsShed)
	}
	if s.WireV1Conns > 0 {
		fmt.Fprintf(w, "%swire: %d conn(s), %d delta(s) folded, %d base miss(es)\n",
			prefix, s.WireV1Conns, s.DeltasFolded, s.DeltaBaseMisses)
	}
}

// Sites writes the per-site health table, one row per federation site,
// sorted by name. Nothing is written for fewer than two sites — a
// single-site table restates the Summary line. prefix indents each row.
func Sites(w io.Writer, sites map[string]dist.SiteStats, prefix string) {
	if len(sites) < 2 {
		return
	}
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%s%-16s %7s %7s %7s %8s %9s %9s %10s %12s\n", prefix,
		"site", "leased", "done", "failed", "expired", "spec won", "spec lost", "breaker", "rate (st/s)")
	for _, name := range names {
		s := sites[name]
		fmt.Fprintf(w, "%s%-16s %7d %7d %7d %8d %9d %9d %10s %12.0f\n", prefix,
			s.Site, s.Assignments, s.Completions, s.Failures, s.LeaseExpiries,
			s.SpecWon, s.SpecLost, s.Breaker, s.RateEWMA)
	}
}

// Render writes the full snapshot: summary, then the per-site health
// table.
func Render(w io.Writer, snap dist.Snapshot, prefix string) {
	Summary(w, snap.Stats, prefix)
	Sites(w, snap.Sites, prefix)
}
