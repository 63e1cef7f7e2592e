// Package grid is a discrete-event model of the HPC resources SPICE ran
// on: machines with processor counts, space-shared batch queues with
// FCFS/backfill scheduling, and the advance reservations that cross-site
// runs required. Time is measured in hours (float64) from the simulation
// epoch — the natural unit for a campaign that consumed 75,000 CPU-hours.
//
// The model is deliberately deterministic: given the same job stream it
// always produces the same schedule, which the campaign and federation
// layers rely on for reproducible experiments.
package grid

import (
	"errors"
	"fmt"
	"sort"
)

// Job is one batch submission.
type Job struct {
	ID    string
	Procs int
	// Hours is the wall-clock runtime once started.
	Hours float64
	// Submit is the queue entry time.
	Submit float64
	// Tags carry application metadata (e.g. the SMD parameters).
	Tags map[string]string
}

// CPUHours returns Procs·Hours.
func (j *Job) CPUHours() float64 { return float64(j.Procs) * j.Hours }

// Placement records where and when a job ran.
type Placement struct {
	Job     *Job
	Machine *Machine
	Start   float64
	// Backfilled marks jobs that jumped the FCFS order into a hole.
	Backfilled bool
}

// End returns Start + Hours.
func (p Placement) End() float64 { return p.Start + p.Job.Hours }

// WaitTime returns Start - Submit.
func (p Placement) WaitTime() float64 { return p.Start - p.Job.Submit }

// interval is a scheduled allocation of procs on a machine.
type interval struct {
	start, end float64
	procs      int
}

// Machine is a space-shared HPC resource.
type Machine struct {
	Name  string
	Procs int
	// Site backlink (set by federation topologies; may be empty).
	Site string

	sched []interval
	// cands is EarliestStart's reusable candidate-time scratch: campaign
	// scheduling calls it for every (job, machine) probe, and rebuilding
	// the slice each call dominated the T3 benchmark's allocation profile.
	cands []float64
}

// NewMachine returns a machine with the given processor count.
func NewMachine(name string, procs int) *Machine {
	return &Machine{Name: name, Procs: procs}
}

// usedAt returns processors in use at time t (start-inclusive).
func (m *Machine) usedAt(t float64) int {
	used := 0
	for _, iv := range m.sched {
		if t >= iv.start && t < iv.end {
			used += iv.procs
		}
	}
	return used
}

// fits reports whether procs processors are free during [start, start+hours).
func (m *Machine) fits(start, hours float64, procs int) bool {
	if procs > m.Procs {
		return false
	}
	// Check at every boundary inside the window (piecewise-constant usage).
	// Usage only changes at interval starts, so probing `start` plus each
	// interval start inside the window is exhaustive; probing them directly
	// avoids materializing a boundary slice per call.
	if m.usedAt(start)+procs > m.Procs {
		return false
	}
	for _, iv := range m.sched {
		if iv.start > start && iv.start < start+hours && m.usedAt(iv.start)+procs > m.Procs {
			return false
		}
	}
	return true
}

// EarliestStart returns the earliest time >= after at which procs
// processors are simultaneously free for hours. It returns an error if the
// machine is too small.
func (m *Machine) EarliestStart(after, hours float64, procs int) (float64, error) {
	if procs <= 0 {
		return 0, fmt.Errorf("grid: job needs %d procs", procs)
	}
	if procs > m.Procs {
		return 0, fmt.Errorf("grid: %s has %d procs, job needs %d", m.Name, m.Procs, procs)
	}
	// Candidate starts: `after` and every interval end after it.
	cands := append(m.cands[:0], after)
	for _, iv := range m.sched {
		if iv.end > after {
			cands = append(cands, iv.end)
		}
	}
	m.cands = cands
	sort.Float64s(cands)
	for _, c := range cands {
		if m.fits(c, hours, procs) {
			return c, nil
		}
	}
	// Unreachable: the last interval end always fits.
	return 0, errors.New("grid: no feasible start found")
}

// Reserve books procs processors during [start, start+hours). It fails if
// capacity is unavailable — the advance-reservation conflict case.
func (m *Machine) Reserve(start, hours float64, procs int) error {
	if !m.fits(start, hours, procs) {
		return fmt.Errorf("grid: %s cannot fit %d procs at t=%.2f for %.2f h", m.Name, procs, start, hours)
	}
	m.sched = append(m.sched, interval{start: start, end: start + hours, procs: procs})
	return nil
}

// Utilization returns the fraction of proc-hours used in [0, horizon).
func (m *Machine) Utilization(horizon float64) float64 {
	if horizon <= 0 || m.Procs == 0 {
		return 0
	}
	used := 0.0
	for _, iv := range m.sched {
		lo, hi := iv.start, iv.end
		if lo < 0 {
			lo = 0
		}
		if hi > horizon {
			hi = horizon
		}
		if hi > lo {
			used += (hi - lo) * float64(iv.procs)
		}
	}
	return used / (horizon * float64(m.Procs))
}

// Outage blocks the whole machine during [start, start+hours) — used for
// failure injection (hardware failure, security quarantine §V.C.4). It
// overrides capacity checks: running jobs are preempted in the sense that
// the window is simply unavailable to later placements.
func (m *Machine) Outage(start, hours float64) {
	m.sched = append(m.sched, interval{start: start, end: start + hours, procs: m.Procs})
}

// Queue is a batch queue over one machine.
type Queue struct {
	M *Machine
	// Backfill enables conservative backfill: a job may start earlier
	// than a previously queued job if it fits in an existing hole.
	// Without it, starts are forced to be monotone in submit order
	// (strict FCFS).
	Backfill bool

	lastStart float64
	placed    []Placement
}

// NewQueue wraps a machine.
func NewQueue(m *Machine, backfill bool) *Queue { return &Queue{M: m, Backfill: backfill} }

// Submit schedules j and returns its placement.
func (q *Queue) Submit(j *Job) (Placement, error) {
	after := j.Submit
	if !q.Backfill && q.lastStart > after {
		after = q.lastStart
	}
	start, err := q.M.EarliestStart(after, j.Hours, j.Procs)
	if err != nil {
		return Placement{}, err
	}
	if err := q.M.Reserve(start, j.Hours, j.Procs); err != nil {
		return Placement{}, err
	}
	p := Placement{Job: j, Machine: q.M, Start: start, Backfilled: q.Backfill && start < q.lastStart}
	if start > q.lastStart {
		q.lastStart = start
	}
	q.placed = append(q.placed, p)
	return p, nil
}

// Placements returns all jobs scheduled through this queue.
func (q *Queue) Placements() []Placement { return append([]Placement(nil), q.placed...) }

// Makespan returns the latest end time across placements (0 if none).
func Makespan(ps []Placement) float64 {
	end := 0.0
	for _, p := range ps {
		if e := p.End(); e > end {
			end = e
		}
	}
	return end
}

// TotalCPUHours sums Procs·Hours over placements.
func TotalCPUHours(ps []Placement) float64 {
	s := 0.0
	for _, p := range ps {
		s += p.Job.CPUHours()
	}
	return s
}
