package campaign

import (
	"fmt"
	"sort"
	"strconv"

	"spice/internal/federation"
	"spice/internal/grid"
)

// ScheduleResult summarizes a simulated campaign schedule.
type ScheduleResult struct {
	Placements    []grid.Placement
	MakespanHours float64
	TotalCPUHours float64
	// PerSite counts jobs by hosting machine name.
	PerSite map[string]int
	// MaxWaitHours is the worst queue wait.
	MaxWaitHours float64
}

// Days returns the makespan in days — the paper's headline is "under a
// week".
func (r ScheduleResult) Days() float64 { return r.MakespanHours / 24 }

// Simulate schedules the campaign's job set on the federation (or any
// subset of it) and returns the schedule summary: the failure-free
// schedule of SimulateWithFailures. Constraint applies to every job; the
// production batch needs cross-site steering connectivity but not
// lightpaths.
func Simulate(fed *federation.Federation, spec Spec, cm CostModel, backfill bool, constraint federation.JobConstraint) (*ScheduleResult, error) {
	res, err := simulate(fed, spec, cm, backfill, FailureModel{}, constraint)
	if err != nil {
		return nil, err
	}
	return &res.ScheduleResult, nil
}

// SingleSite builds a one-site federation around the given machine —
// the baseline "no federated grid" scenario.
func SingleSite(name string, procs int) *federation.Federation {
	m := grid.NewMachine(name, procs)
	m.Site = name
	return &federation.Federation{Grids: []*federation.Grid{{
		Name:       name,
		Middleware: federation.GT2,
		Sites:      []*federation.Site{{Name: name, Machine: m, Lightpath: true}},
	}}}
}

// BackgroundLoad submits synthetic competing jobs to every machine in the
// federation before the campaign arrives, occupying loadFraction of each
// machine's capacity over the horizon. This models production queues:
// SPICE never had idle machines to itself.
func BackgroundLoad(fed *federation.Federation, loadFraction, horizonHours float64, seed uint64) error {
	if loadFraction <= 0 {
		return nil
	}
	if loadFraction >= 1 {
		return fmt.Errorf("campaign: background load fraction %g too high", loadFraction)
	}
	for si, site := range fed.Sites() {
		m := site.Machine
		q := grid.NewQueue(m, true)
		target := loadFraction * horizonHours * float64(m.Procs)
		booked := 0.0
		// Deterministic pseudo-load: alternating medium jobs spread
		// over the horizon.
		i := 0
		for booked < target {
			procs := m.Procs / 4
			if procs < 1 {
				procs = 1
			}
			hours := 6.0 + float64((si+i)%5)*2
			submit := float64(i%int(horizonHours/4+1)) * 4
			j := &grid.Job{
				ID:     "bg-" + m.Name + "-" + strconv.Itoa(i),
				Procs:  procs,
				Hours:  hours,
				Submit: submit,
			}
			if _, err := q.Submit(j); err != nil {
				return err
			}
			booked += j.CPUHours()
			i++
			if i > 10000 {
				break
			}
		}
	}
	return nil
}

// CompareScenarios runs the same campaign on each federation and returns
// results keyed by label, plus the labels sorted for stable iteration.
func CompareScenarios(feds map[string]*federation.Federation, spec Spec, cm CostModel, constraint federation.JobConstraint) (map[string]*ScheduleResult, []string, error) {
	out := make(map[string]*ScheduleResult, len(feds))
	labels := make([]string, 0, len(feds))
	for label := range feds {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		r, err := Simulate(feds[label], spec, cm, true, constraint)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: scenario %q: %w", label, err)
		}
		out[label] = r
	}
	return out, labels, nil
}
