package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/jarzynski"
	"spice/internal/trace"
)

// fleetWorkers is the size of the fleet under test: spiced worker
// processes with one slot each.
const fleetWorkers = 2

// systemUnderTest is the model system every workload pulls on, shipped
// to spiced -serve as -system. EngineWorkers is pinned so every process
// sums forces in the same order and served results can be compared to
// LocalRunner bit for bit.
var systemUnderTest = core.SystemConfig{
	Beads: 24, StartZ: 5, EquilSteps: 1000, DT: 0.01, Temp: 300, PoreFriction: 1, EngineWorkers: 1,
}

func systemJSON() []byte {
	b, err := json.Marshal(systemUnderTest)
	if err != nil {
		panic(err) // a struct of numbers cannot fail to marshal
	}
	return b
}

// workload is one traffic shape. spec is the campaign whose
// submit→PMF time is measured; bulk, when set, is a second tenant's
// campaign resubmitted back to back while spec campaigns are measured.
// Sizes are fixed here and frozen: a change to them is a change to the
// benchmark, not to the system. Why each workload exists is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	spec campaign.Spec
	bulk *campaign.Spec
}

// The Fig. 4 production sweep: 3 spring constants × 4 velocities, so
// job length spreads 8:1 inside one campaign.
var sweepSpec = campaign.Spec{
	Kappas: []float64{10, 100, 1000}, Velocities: []float64{12.5, 25, 50, 100},
	Replicas: 1, EqualSamples: true, Distance: 10,
}

var workloads = []workload{
	{
		name: "sweep",
		// 12 pulls, ≈1.4 s local: MD does almost all the work.
		spec: sweepSpec,
	},
	{
		name: "finegrain",
		// 100 pulls of ≈10 ms: leases, commits and fsyncs dominate.
		spec: campaign.Spec{Kappas: []float64{100}, Velocities: []float64{200}, Replicas: 100, EqualSamples: true, Distance: 5},
	},
	{
		name: "longpull",
		// 2 pulls of ≈1.5 s streaming ≈7 checkpoints each: bulk payloads.
		spec: campaign.Spec{Kappas: []float64{100}, Velocities: []float64{6.25}, Replicas: 2, EqualSamples: true, Distance: 16},
	},
	{
		name: "multitenant",
		// 4-pull probes measured beside a tenant resubmitting the sweep.
		spec: campaign.Spec{Kappas: []float64{100}, Velocities: []float64{100}, Replicas: 4, EqualSamples: true, Distance: 10},
		bulk: &sweepSpec,
	},
}

// warmupSpec is the small campaign that starts the coordinator's accept
// loop, connects the workers and leaves the fleet in its idle-poll
// state before anything is measured.
var warmupSpec = campaign.Spec{Kappas: []float64{100}, Velocities: []float64{200}, Replicas: 4, EqualSamples: true, Distance: 5}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seeded returns s with its RNG seed set: the benchmark's seed argument
// reaches the fleet only through the specs generated from it.
func seeded(s campaign.Spec, seed uint64) campaign.Spec {
	s.Seed = seed
	return s
}

func pulls(s campaign.Spec) int { return len(s.Tasks()) }

// pmfBytes reduces a campaign result to the bytes a user would keep: for
// every combo, in sweep order, the exponential and second-cumulant PMFs
// as raw float64 bits. Two results with equal pmfBytes gave the user the
// identical free-energy profiles.
func pmfBytes(spec campaign.Spec, res map[campaign.Combo][]*trace.WorkLog) ([]byte, error) {
	var out []byte
	for _, c := range spec.Combos() {
		logs := res[c]
		if len(logs) != spec.SamplesFor(c) {
			return nil, fmt.Errorf("combo %s: %d work logs, want %d", c, len(logs), spec.SamplesFor(c))
		}
		ens, err := jarzynski.NewEnsemble(systemUnderTest.Temp, logs)
		if err != nil {
			return nil, fmt.Errorf("combo %s: %w", c, err)
		}
		for _, est := range []jarzynski.Estimator{jarzynski.Exponential, jarzynski.Cumulant2} {
			pmf, err := ens.PMF(est)
			if err != nil {
				return nil, fmt.Errorf("combo %s: %s: %w", c, est, err)
			}
			for _, v := range pmf {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
	}
	return out, nil
}
