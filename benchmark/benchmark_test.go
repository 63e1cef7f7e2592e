package main

import (
	"math"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// Parent 0..100. Children 10..40 and 30..60 overlap (cover 10..60),
	// 80..120 sticks out (cover 80..100): covered 70, self 30.
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 10, End: 40},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	selfTimes(spans)
	want := map[string]int64{"parent": 30, "a": 0, "b": 30, "c": 40, "grandchild": 30, "orphan": 7}
	for _, s := range spans {
		if s.SelfNs != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.SelfNs, want[s.Name])
		}
	}
}

func TestCoverNestedAndDisjoint(t *testing.T) {
	for _, tc := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 8}, {3, 5}}, 0, 10, 6},           // nested
		{[][2]int64{{6, 9}, {1, 2}}, 0, 10, 4},           // unsorted, disjoint
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},         // clipped at both ends
		{[][2]int64{{20, 30}}, 0, 10, 0},                 // outside
		{[][2]int64{{0, 4}, {4, 7}, {2, 10}}, 0, 10, 10}, // touching and overlapping
	} {
		if got := cover(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("cover(%v, %d, %d) = %d, want %d", tc.ivs, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestPartitionSumsToOne(t *testing.T) {
	// Two workers, campaign 0..1000: first lease at 100, last result at
	// 900. w0 runs 100..500 (build 50) and 600..900 (build 50); w1 runs
	// 300..800 (build 100).
	tl := campaignTimeline{
		Submit: 0, FirstLease: 100, LastResult: 900, End: 1000,
		Jobs: []jobTimeline{
			{Worker: "w0", Started: 100, Done: 500, BuildNs: 50},
			{Worker: "w0", Started: 600, Done: 900, BuildNs: 50},
			{Worker: "w1", Started: 300, Done: 800, BuildNs: 100},
		},
	}
	s := partition(tl, []string{"w0", "w1"})
	want := shares{Head: 200.0 / 2000, Build: 200.0 / 2000, Pull: 1000.0 / 2000, Idle: 400.0 / 2000, Tail: 200.0 / 2000}
	if s != want {
		t.Errorf("partition = %+v, want %+v", s, want)
	}
	if math.Abs(s.sum()-1) > 1e-12 {
		t.Errorf("shares sum to %v", s.sum())
	}
	// A job on a worker the fleet does not have is time the partition
	// cannot place: the sum must show it.
	tl.Jobs[2].Worker = "stranger"
	if s := partition(tl, []string{"w0", "w1"}); math.Abs(s.sum()-1) < 0.01 {
		t.Errorf("misattributed job went unnoticed: shares sum to %v", s.sum())
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{19, 0, false},
		{20, 50, true},   // 10 beyond the median
		{49, 50, true},   // p80 would leave 9
		{50, 80, true},   // p80 leaves 10
		{60, 80, true},   // p80 leaves 12, p90 leaves 6
		{100, 90, true},  // p90 leaves 10, p95 leaves 5
		{200, 95, true},  // p95 leaves 10
		{1000, 99, true}, // p99 leaves 10, p99.9 leaves 1
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command contains spaces and a ')' — fields must be counted from
	// the last parenthesis. utime=1234 stime=766 ticks → 20 s.
	stat := "4242 (spiced (serve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 766 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 20 {
		t.Errorf("parseStatCPU = %v, %v; want 20, nil", got, err)
	}
	for _, bad := range []string{"", "1 spiced S 1", "1 (spiced) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) did not fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tspiced\nVmPeak:\t 1234567 kB\nVmHWM:\t   14336 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 14 {
		t.Errorf("parseVmHWM = %v, %v; want 14, nil", got, err)
	}
	for _, bad := range []string{"Name:\tspiced\n", "VmHWM:\t14336\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
}

func TestParseBanner(t *testing.T) {
	h, c, ok := parseBanner("control plane: http://127.0.0.1:41873/api/v1/campaigns (coordinator 127.0.0.1:36571, 0 in-process workers)")
	if !ok || h != "127.0.0.1:41873" || c != "127.0.0.1:36571" {
		t.Errorf("parseBanner = %q, %q, %v", h, c, ok)
	}
	h, c, ok = parseBanner("control plane: http://[::1]:9556/api/v1/campaigns (coordinator [::1]:9555, 2 in-process workers)")
	if !ok || h != "[::1]:9556" || c != "[::1]:9555" {
		t.Errorf("parseBanner (IPv6) = %q, %q, %v", h, c, ok)
	}
	for _, other := range []string{"", "shutting down", "observability: http://127.0.0.1:9091/metrics (also /healthz)"} {
		if _, _, ok := parseBanner(other); ok {
			t.Errorf("parseBanner(%q) matched", other)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// = [3.5, 13.5, 31.0]; quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0].
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if s := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(s-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", s, 27.5/13.5)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("spread of one value = %v, want 0", s)
	}
}

func TestJudgeAppliesBoundAndDirection(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	lower := metricDecl{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "rate", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		d    metricDecl
		a, b []float64
		want verdict
	}{
		{"lower: +5% is inside the bound", lower, steady(100), steady(105), verdictOK},
		{"lower: +20% regressed", lower, steady(100), steady(120), verdictRegressed},
		{"lower: -20% improved", lower, steady(100), steady(80), verdictImproved},
		{"higher: -20% regressed", higher, steady(100), steady(80), verdictRegressed},
		{"higher: +20% improved", higher, steady(100), steady(120), verdictImproved},
		{"higher: -5% is inside the bound", higher, steady(100), steady(95), verdictOK},
		{"spread wider than the bound", lower, []float64{70, 85, 100, 115, 130}, steady(100), verdictUnresolved},
		{"spread wider than the bound hides a regression too", lower, steady(100), []float64{90, 110, 130, 150, 170}, verdictUnresolved},
	} {
		if got, _, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	_, change, _ := judge(higher, steady(100), steady(80))
	if math.Abs(change-0.2) > 1e-9 {
		t.Errorf("change for a higher-is-better drop of 20%% = %v, want +0.2 (worse)", change)
	}
}

func TestMetricsCheckedAgainstManifest(t *testing.T) {
	decls := []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := (metrics{"a": 1}).checked(decls); err == nil {
		t.Error("a declared metric that was not measured went unnoticed")
	}
	if _, err := (metrics{"a": 1, "b": 2, "c": 3}).checked(decls); err == nil {
		t.Error("a measured metric that is not declared went unnoticed")
	}
	got, err := (metrics{"a": 1, "b": 2}).checked(decls)
	if err != nil || got["b"] != (value{Value: 2, Unit: "ms"}) {
		t.Errorf("checked = %v, %v", got, err)
	}
}
