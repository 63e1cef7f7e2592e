package statsfmt

import (
	"strings"
	"testing"
	"time"

	"spice/internal/dist"
)

func TestSummaryLines(t *testing.T) {
	var sb strings.Builder
	Summary(&sb, dist.Stats{Jobs: 4, Assignments: 6, Retries: 2, BytesIn: 2048}, "dist: ")
	out := sb.String()
	if !strings.Contains(out, "dist: 4 jobs, 6 assignments (2 retries, 0 resumes)") {
		t.Fatalf("totals line malformed:\n%s", out)
	}
	if strings.Contains(out, "recovery:") || strings.Contains(out, "resilience:") {
		t.Fatalf("quiet campaign printed recovery/resilience lines:\n%s", out)
	}

	sb.Reset()
	Summary(&sb, dist.Stats{
		Restarts: 1, ReplayedRecords: 7,
		TornTail: dist.TailTorn, TornTailMsg: "journal tail: torn record", TruncatedTailBytes: 13,
		StragglersDetected: 1, SpeculationsLaunched: 1, SpeculationsWon: 1,
	}, "")
	out = sb.String()
	for _, want := range []string{
		"recovery: 1 restart(s), 7 journal records replayed",
		"dropped 13-byte torn journal tail (journal tail: torn record)",
		"resilience: 1 straggler(s), 1 speculation(s) (1 won, 0 wasted)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSitesSkipsSingleSite(t *testing.T) {
	var sb strings.Builder
	Sites(&sb, map[string]dist.SiteStats{"only": {Site: "only"}}, "")
	if sb.Len() != 0 {
		t.Fatalf("single-site table should print nothing, got:\n%s", sb.String())
	}
	Sites(&sb, map[string]dist.SiteStats{
		"b-site": {Site: "b-site", Assignments: 2, Completions: 2, Breaker: "closed"},
		"a-site": {Site: "a-site", Assignments: 3, Completions: 1, Breaker: "open"},
	}, "")
	out := sb.String()
	if !strings.Contains(out, "a-site") || !strings.Contains(out, "b-site") {
		t.Fatalf("two-site table missing rows:\n%s", out)
	}
	if strings.Index(out, "a-site") > strings.Index(out, "b-site") {
		t.Fatalf("sites not sorted by name:\n%s", out)
	}
}

func TestRenderComposes(t *testing.T) {
	snap := dist.Snapshot{
		Stats: dist.Stats{Jobs: 1, Assignments: 1},
		Sites: map[string]dist.SiteStats{
			"x": {Site: "x", Breaker: "closed", LatencyEWMA: time.Second},
			"y": {Site: "y", Breaker: "closed"},
		},
	}
	var sb strings.Builder
	Render(&sb, snap, "  ")
	out := sb.String()
	if !strings.Contains(out, "1 jobs") || !strings.Contains(out, "breaker") {
		t.Fatalf("Render missing sections:\n%s", out)
	}
}
