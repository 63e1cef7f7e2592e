package campaign

import (
	"fmt"

	"spice/internal/federation"
	"spice/internal/grid"
	"spice/internal/xrand"
)

// FailureModel injects runtime job failures: each job independently fails
// with probability PFail at a uniform point of its runtime; the partial
// run is wasted and the job is resubmitted. With ExcludeFailedMachine the
// resubmission avoids the machine that killed it (the operators' standard
// response to a flaky node).
//
// This extends the T7 experiment from whole-site outages to the
// job-level "hardware failure ... causes serious disruption" mode of the
// paper's §V.C.4.
type FailureModel struct {
	PFail                float64
	ExcludeFailedMachine bool
	Seed                 uint64
}

// FailureResult extends ScheduleResult with the disruption accounting.
type FailureResult struct {
	ScheduleResult
	Failures       int
	WastedCPUHours float64
}

// SimulateWithFailures schedules the campaign like Simulate with
// backfill, then rolls failures: a failed job is resubmitted at its
// failure time (and its wasted partial allocation stays booked — the
// machine really did burn those cycles). Retries may fail again; the
// loop runs to completion.
func SimulateWithFailures(fed *federation.Federation, spec Spec, cm CostModel, fm FailureModel, constraint federation.JobConstraint) (*FailureResult, error) {
	if fm.PFail < 0 || fm.PFail >= 1 {
		return nil, fmt.Errorf("campaign: failure probability %g out of [0,1)", fm.PFail)
	}
	return simulate(fed, spec, cm, true, fm, constraint)
}

// simulate places spec.Jobs(cm) in order through one federation
// scheduler, resubmitting the attempts fm fails. The zero FailureModel
// fails nothing and draws no random numbers.
func simulate(fed *federation.Federation, spec Spec, cm CostModel, backfill bool, fm FailureModel, constraint federation.JobConstraint) (*FailureResult, error) {
	rng := xrand.New(fm.Seed)
	sched := federation.NewScheduler(fed, backfill)

	type attempt struct {
		job     *grid.Job
		exclude map[string]bool
	}
	queue := make([]attempt, 0, 128)
	for _, j := range spec.Jobs(cm) {
		queue = append(queue, attempt{job: j, exclude: constraint.Exclude})
	}

	res := &FailureResult{}
	res.PerSite = make(map[string]int)
	guard := 0
	for len(queue) > 0 {
		if guard++; guard > 100000 {
			return nil, fmt.Errorf("campaign: failure loop did not terminate")
		}
		at := queue[0]
		queue = queue[1:]

		c := constraint
		c.Exclude = at.exclude
		p, site, err := sched.Submit(at.job, c)
		if err != nil {
			return nil, err
		}
		if fm.PFail > 0 && rng.Float64() < fm.PFail {
			// Fails at a uniform fraction of its runtime: the booked
			// window stays (wasted cycles), and a fresh attempt is
			// queued from the failure time.
			frac := rng.Float64()
			failAt := p.Start + frac*at.job.Hours
			res.Failures++
			res.WastedCPUHours += frac * at.job.CPUHours()
			retry := &grid.Job{
				ID:     at.job.ID + "+retry",
				Procs:  at.job.Procs,
				Hours:  at.job.Hours,
				Submit: failAt,
				Tags:   at.job.Tags,
			}
			excl := at.exclude
			if fm.ExcludeFailedMachine {
				// Copy so sibling attempts are unaffected.
				excl = make(map[string]bool, len(at.exclude)+1)
				for k := range at.exclude {
					excl[k] = true
				}
				excl[site.Name] = true
			}
			queue = append(queue, attempt{job: retry, exclude: excl})
			continue
		}
		res.Placements = append(res.Placements, p)
		res.PerSite[p.Machine.Name]++
		if w := p.WaitTime(); w > res.MaxWaitHours {
			res.MaxWaitHours = w
		}
	}
	res.MakespanHours = grid.Makespan(res.Placements)
	res.TotalCPUHours = grid.TotalCPUHours(res.Placements)
	return res, nil
}
