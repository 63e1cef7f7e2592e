// Package campaign orchestrates the SMD-JE production phase: generating
// the parameter-sweep job set (the paper ran 72 parallel simulations of
// 128-256 processors each, ~75,000 CPU-hours, completed in under a week
// only because a federated grid was available), scheduling it on the
// federation model at paper scale, and actually executing the
// coarse-grained equivalent locally across a goroutine worker pool.
package campaign

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"spice/internal/grid"
	"spice/internal/md"
	"spice/internal/smd"
	"spice/internal/trace"
	"spice/internal/xrand"
)

// CostModel converts simulated physical time to machine time using the
// paper's in-text calibration.
type CostModel struct {
	// Atoms is the system size the calibration refers to.
	Atoms int
	// CPUHoursPerNs is the cost of 1 ns of dynamics: 24 h × 128 procs =
	// 3072 CPU-hours for the 300,000-atom hemolysin system (§I quotes
	// this rounded to "about 3000 CPU-hours").
	CPUHoursPerNs float64
}

// PaperCostModel is §I's back-of-the-envelope calibration.
func PaperCostModel() CostModel { return CostModel{Atoms: 300000, CPUHoursPerNs: 24 * 128} }

// HoursFor returns wall-clock hours to simulate ns nanoseconds on procs
// processors, assuming the near-linear NAMD scaling the paper relies on.
func (c CostModel) HoursFor(ns float64, procs int) float64 {
	if procs <= 0 {
		procs = 128
	}
	return c.CPUHoursPerNs * ns / float64(procs)
}

// VanillaCPUHours is the cost of the brute-force approach: simulating the
// full translocation timescale directly (§I: 10 µs → 3×10⁷ CPU-hours).
func (c CostModel) VanillaCPUHours(microseconds float64) float64 {
	return c.CPUHoursPerNs * microseconds * 1000
}

// Combo is one (κ, v) parameter combination in paper units.
type Combo struct {
	KappaPN float64 // pN/Å
	VAns    float64 // Å/ns
}

// String implements fmt.Stringer.
func (c Combo) String() string { return fmt.Sprintf("k%g-v%g", c.KappaPN, c.VAns) }

// Spec defines a production campaign.
type Spec struct {
	// Kappas and Velocities span the sweep (paper: κ ∈ {10,100,1000}
	// pN/Å, v ∈ {12.5,25,50,100} Å/ns).
	Kappas     []float64
	Velocities []float64
	// Replicas is the number of samples per combination at the SLOWEST
	// velocity; faster velocities get proportionally more samples at
	// equal cost (the paper's normalization). Set EqualSamples to use
	// Replicas everywhere instead.
	Replicas     int
	EqualSamples bool
	// Distance is the pull length in Å (paper: 10 Å sub-trajectory).
	Distance float64
	// ProcsPerJob is the per-simulation processor count (128 or 256).
	ProcsPerJob int
	// Seed feeds per-job RNG streams.
	Seed uint64
}

// PaperSpec reproduces the production campaign: the Fig. 4 sweep sized to
// 72 simulations total.
func PaperSpec() Spec {
	return Spec{
		Kappas:     []float64{10, 100, 1000},
		Velocities: []float64{12.5, 25, 50, 100},
		// 72 jobs total: replicas at the slowest velocity per κ combo.
		// Σ_v (r·v/12.5) per κ = r·(1+2+4+8) = 15r; 3 κ values → 45r...
		// The paper does not give the per-combo split; we size r so the
		// total is 72 with equal per-combo counts: 72/(3·4) = 6 each.
		Replicas:     6,
		EqualSamples: true,
		Distance:     10,
		ProcsPerJob:  128,
		Seed:         2005,
	}
}

// SamplesFor returns how many replicas combo gets under the spec's
// cost-normalization policy.
func (s Spec) SamplesFor(c Combo) int {
	if s.EqualSamples || len(s.Velocities) == 0 {
		return s.Replicas
	}
	vmin := s.Velocities[0]
	for _, v := range s.Velocities[1:] {
		if v < vmin {
			vmin = v
		}
	}
	n := int(float64(s.Replicas)*c.VAns/vmin + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// Combos enumerates the sweep in deterministic order.
func (s Spec) Combos() []Combo {
	var out []Combo
	for _, k := range s.Kappas {
		for _, v := range s.Velocities {
			out = append(out, Combo{KappaPN: k, VAns: v})
		}
	}
	return out
}

// PullNs is the cost of one pull of combo c: the physical time it
// simulates, Distance Å at v Å/ns. It is the one cost unit of a pull —
// Jobs turns it into machine time, and the live fair-share ledger
// charges it as is, so modelled and served charges differ only by
// CostModel.CPUHoursPerNs.
func (s Spec) PullNs(c Combo) float64 { return s.Distance / c.VAns }

// WorkNs is the cost of the whole campaign: PullNs summed over every
// pull of the task set.
func (s Spec) WorkNs() float64 {
	ns := 0.0
	for _, c := range s.Combos() {
		ns += float64(s.SamplesFor(c)) * s.PullNs(c)
	}
	return ns
}

// Jobs expands the spec into grid jobs using the cost model, one per
// pull, each costing PullNs of simulated time.
func (s Spec) Jobs(cm CostModel) []*grid.Job {
	total := 0
	for _, c := range s.Combos() {
		total += s.SamplesFor(c)
	}
	jobs := make([]*grid.Job, 0, total)
	for _, c := range s.Combos() {
		hours := cm.HoursFor(s.PullNs(c), s.ProcsPerJob)
		n := s.SamplesFor(c)
		kappa := strconv.FormatFloat(c.KappaPN, 'g', -1, 64)
		vel := strconv.FormatFloat(c.VAns, 'g', -1, 64)
		prefix := "smdje-k" + kappa + "-v" + vel + "-r"
		for r := 0; r < n; r++ {
			jobs = append(jobs, &grid.Job{
				ID:     prefix + strconv.Itoa(r),
				Procs:  s.ProcsPerJob,
				Hours:  hours,
				Submit: 0,
				Tags: map[string]string{
					"kappa":    kappa,
					"velocity": vel,
					"replica":  strconv.Itoa(r),
				},
			})
		}
	}
	return jobs
}

// BuildFunc constructs a fresh simulation for one pull. It receives the
// combo and a unique seed; it must return the engine plus the steered
// atom indices.
type BuildFunc func(c Combo, seed uint64) (*md.Engine, []int, error)

// Runner executes a campaign and returns its work logs grouped by combo,
// ordered by replica index within each combo. Implementations must be
// deterministic functions of the spec: LocalRunner runs in-process, the
// dist coordinator shards the same task set across worker processes and
// merges to bit-identical output.
type Runner interface {
	Run(spec Spec) (map[Combo][]*trace.WorkLog, error)
}

// Task is one schedulable pull: a combo, its replica index, and the seed
// derived from the spec. Exported so alternative Runners shard exactly
// the job set — same order, same seeds — that local execution uses.
type Task struct {
	Combo Combo
	Seed  uint64
	Index int
}

// Tasks enumerates the spec's pulls in deterministic order with their
// derived seeds: the single source of truth shared by LocalRunner and
// any distributed Runner, so results merge bit-identically regardless
// of where each pull actually ran.
func (s Spec) Tasks() []Task {
	root := xrand.New(s.Seed)
	var tasks []Task
	for _, c := range s.Combos() {
		n := s.SamplesFor(c)
		for r := 0; r < n; r++ {
			tasks = append(tasks, Task{Combo: c, Seed: root.Uint64(), Index: r})
		}
	}
	return tasks
}

// Collate assembles per-task logs (indexed parallel to tasks) into the
// Runner result shape. Because the task order is deterministic, the
// grouping is independent of which worker produced each log.
func Collate(tasks []Task, logs []*trace.WorkLog) map[Combo][]*trace.WorkLog {
	out := make(map[Combo][]*trace.WorkLog)
	for i, t := range tasks {
		out[t.Combo] = append(out[t.Combo], logs[i])
	}
	return out
}

// ExecutePull runs one pull end to end on a freshly built engine. This
// is the job execution path shared by LocalRunner and dist workers;
// opts threads through checkpoint/resume plumbing for the latter.
func ExecutePull(spec Spec, t Task, build BuildFunc, opts smd.RunOpts) (*trace.WorkLog, error) {
	eng, atoms, err := build(t.Combo, t.Seed)
	if err != nil {
		return nil, err
	}
	p := smd.PaperProtocol(t.Combo.KappaPN, t.Combo.VAns, atoms)
	p.Distance = spec.Distance
	pl, err := smd.Attach(eng, p)
	if err != nil {
		return nil, err
	}
	res, err := pl.RunWithOpts(eng, p, t.Seed, opts)
	if err != nil {
		return nil, err
	}
	return res.Log, nil
}

// LocalRunner executes the campaign's pulls for real on the CG
// translocation system, one goroutine worker per logical CPU — the
// laptop-scale stand-in for the federated grid's 72 concurrent
// supercomputer allocations.
type LocalRunner struct {
	// Build constructs a fresh simulation per pull.
	Build BuildFunc
	// Workers caps concurrency (default NumCPU).
	Workers int
}

var _ Runner = (*LocalRunner)(nil)

// Run executes all pulls of spec and returns the work logs grouped by
// combo. Deterministic: logs are ordered by replica index per combo.
func (lr *LocalRunner) Run(spec Spec) (map[Combo][]*trace.WorkLog, error) {
	if lr.Build == nil {
		return nil, fmt.Errorf("campaign: LocalRunner needs a Build function")
	}
	tasks := spec.Tasks()
	logs, err := ExecuteTasks(tasks, lr.Workers, func(_ int, t Task) (*trace.WorkLog, error) {
		return ExecutePull(spec, t, lr.Build, smd.RunOpts{})
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return Collate(tasks, logs), nil
}

// ExecuteTasks is the in-process worker pool: it runs pull once per
// task on `workers` goroutines (NumCPU when workers <= 0), passing the
// index of the goroutine that took the task, and returns the logs
// parallel to tasks — or, naming its combo and replica, the error of the
// first task in task order whose pull failed.
func ExecuteTasks(tasks []Task, workers int, pull func(worker int, t Task) (*trace.WorkLog, error)) ([]*trace.WorkLog, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	logs := make([]*trace.WorkLog, len(tasks))
	errs := make([]error, len(tasks))
	taskCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range taskCh {
				logs[i], errs[i] = pull(w, tasks[i])
			}
		}(w)
	}
	for i := range tasks {
		taskCh <- i
	}
	close(taskCh)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pull %s replica %d: %w", tasks[i].Combo, tasks[i].Index, err)
		}
	}
	return logs, nil
}
