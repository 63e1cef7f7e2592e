package dist

// LocalRunner executes campaigns in-process with the same stats surface
// as the Coordinator. campaign.LocalRunner is the minimal pool the
// model layers use; this wrapper runs the identical execution path
// (campaign.ExecutePull with default RunOpts, so results are
// bit-identical by construction) while accounting jobs, per-job
// history and a synthetic "local" site — so a spice run without
// -coordinator still prints the same tables and serves the same
// /metrics families as a federated one.

import (
	"fmt"
	"sync"

	"spice/internal/campaign"
	"spice/internal/obs"
	"spice/internal/smd"
	"spice/internal/trace"
)

// localSite is the site identity LocalRunner books all work under.
const localSite = "local"

// LocalRunner is an in-process campaign.Runner with the dist stats
// surface. The zero value needs only Build.
type LocalRunner struct {
	// Build constructs a fresh simulation per pull. Required.
	Build campaign.BuildFunc
	// Workers caps concurrency (default NumCPU).
	Workers int
	// Events, if set, receives job_started/job_done events mirroring the
	// worker-side stream.
	Events *obs.EventLog

	mu       sync.Mutex
	stats    Stats
	done     int // pulls completed successfully
	jobStats map[string]*JobStats
}

var (
	_ campaign.Runner = (*LocalRunner)(nil)
	_ StatsSource     = (*LocalRunner)(nil)
)

// Run executes all pulls of spec and returns the work logs grouped by
// combo, bit-identical to campaign.LocalRunner (same tasks, same seeds,
// same ExecutePull path).
func (lr *LocalRunner) Run(spec campaign.Spec) (map[campaign.Combo][]*trace.WorkLog, error) {
	if lr.Build == nil {
		return nil, fmt.Errorf("dist: LocalRunner needs a Build function")
	}
	tasks := spec.Tasks()
	lr.mu.Lock()
	if lr.jobStats == nil {
		lr.jobStats = make(map[string]*JobStats)
	}
	lr.stats.Jobs += len(tasks)
	lr.mu.Unlock()

	logs, err := campaign.ExecuteTasks(tasks, lr.Workers, func(w int, t campaign.Task) (*trace.WorkLog, error) {
		worker := fmt.Sprintf("%s/%d", localSite, w)
		id := fmt.Sprintf("smdje-%s-r%d", t.Combo, t.Index)
		lr.startJob(id, worker)
		log, err := campaign.ExecutePull(spec, t, lr.Build, smd.RunOpts{})
		lr.finishJob(id, worker, err)
		return log, err
	})
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return campaign.Collate(tasks, logs), nil
}

func (lr *LocalRunner) startJob(id, worker string) {
	lr.mu.Lock()
	lr.stats.Assignments++
	js := lr.jobStats[id]
	if js == nil {
		js = &JobStats{ID: id}
		lr.jobStats[id] = js
	}
	js.Assignments++
	js.Workers = append(js.Workers, worker)
	lr.mu.Unlock()
	lr.Events.Emit(obs.Event{Name: "job_started", Job: id, Site: localSite, Worker: worker})
}

func (lr *LocalRunner) finishJob(id, worker string, err error) {
	lr.mu.Lock()
	name := "job_done"
	var fields map[string]any
	if err != nil {
		lr.stats.Failures++
		name = "job_failed"
		fields = map[string]any{"error": err.Error()}
	} else {
		lr.done++
	}
	lr.mu.Unlock()
	lr.Events.Emit(obs.Event{Name: name, Job: id, Site: localSite, Worker: worker, Fields: fields})
}

// StatsSnapshot implements StatsSource. The site table carries the one
// synthetic "local" site so site-keyed consumers (statsfmt, /metrics)
// work unchanged.
func (lr *LocalRunner) StatsSnapshot() Snapshot {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return Snapshot{
		Stats: lr.stats,
		Jobs:  copyJobStats(lr.jobStats),
		Sites: map[string]SiteStats{localSite: {
			Site:        localSite,
			Assignments: lr.stats.Assignments,
			Completions: lr.done,
			Failures:    lr.stats.Failures,
			Breaker:     breakerClosed.String(),
		}},
	}
}
