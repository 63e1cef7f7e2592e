package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the contract between this benchmark, the
// driver that runs it and the changes that are judged by it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects the measurements of one run by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// checked pairs the measurements with the units the manifest declares
// and fails if the run produced a different set of names than decls:
// the benchmark and BENCHMARK.json cannot drift apart silently.
func (m metrics) checked(decls []metricDecl) (map[string]value, error) {
	out := make(map[string]value, len(decls))
	for _, d := range decls {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// result is one run of one workload: the last line of standard output
// in the driver's format, plus what identifies the run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a result as -out appends it, one JSON line per run, which
// is what -compare reads back.
type record struct {
	Workload string   `json:"workload"`
	Trace    int      `json:"trace"`
	Seed     uint64   `json:"seed"`
	Host     hostInfo `json:"host"`
	Notes    []string `json:"notes,omitempty"`
	// Samples are the per-round values behind the timing metrics.
	Samples map[string][]float64 `json:"samples,omitempty"`
	result
}
