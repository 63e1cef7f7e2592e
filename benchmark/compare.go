package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"spice/internal/analysis"
)

// verdict is what a comparison of one (metric, workload) pair says.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictImproved   verdict = "improved"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a metric's direction and bound to two sets of values
// for it, a before b. The medians decide: worse by more than the bound
// is a regression, better by more than the bound an improvement. When
// either set's own run-to-run spread (interquartile distance over
// median) is wider than the bound, the sets cannot tell a change of
// that size from noise, and the pair is unresolved rather than ok.
func judge(d metricDecl, a, b []float64) (v verdict, change, noise float64) {
	ma, mb := analysis.Median(a), analysis.Median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	if d.Better == "higher" {
		change = -change
	}
	// change is now the share by which b is worse than a.
	noise = max(spread(a), spread(b))
	switch {
	case noise > d.Bound:
		return verdictUnresolved, change, noise
	case change > d.Bound:
		return verdictRegressed, change, noise
	case change < -d.Bound:
		return verdictImproved, change, noise
	}
	return verdictOK, change, noise
}

// readRecords loads a file written by -out: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series groups the values of every metric by workload.
func series(recs []record) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// runCompare prints, per workload and metric, the medians of one or two
// result files and the run-to-run spread, and for end-to-end metrics the
// verdict under the bound BENCHMARK.json fixes. With one file it is the
// steadiness report; with two, the paired parent/change comparison. The
// exit code is 1 if anything regressed.
func runCompare(w io.Writer, man *manifest, files []string) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes one or two result files")
		return 2
	}
	var sets []map[string]map[string][]float64
	for _, path := range files {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		for _, r := range recs {
			if !r.Correct {
				fmt.Fprintf(w, "note: %s holds an incorrect run (%s trace=%d seed=%d)\n", path, r.Workload, r.Trace, r.Seed)
			}
		}
		sets = append(sets, series(recs))
	}
	a, b := sets[0], sets[len(sets)-1]
	regressed := false
	for _, wl := range man.Workloads {
		if a[wl.Name] == nil && b[wl.Name] == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", wl.Name)
		fmt.Fprintf(w, "%-42s %-6s %12s %12s %8s %8s %6s  %s\n", "metric", "unit", "median a", "median b", "change", "spread", "bound", "verdict")
		for _, d := range man.EndToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change, noise := judge(d, va, vb)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-42s %-6s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				d.Name, d.Unit, analysis.Median(va), analysis.Median(vb), 100*change, 100*noise, 100*d.Bound, v, len(va), len(vb))
		}
		for _, d := range man.PerLayer {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-42s %-6s %12.6g %12.6g %8s %7.1f%%\n", d.Name, d.Unit, analysis.Median(va), analysis.Median(vb), "", 100*max(spread(va), spread(vb)))
		}
	}
	if regressed {
		return 1
	}
	return 0
}
