package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"spice/internal/analysis"
	"spice/internal/obs"
)

// jobEvents is what the two event streams say about one pull: the
// coordinator's lease and commit, the worker's start and finish.
type jobEvents struct {
	leased, started, done, accepted time.Time
	worker                          string
}

// campaignEvents is the fleet-side record of one campaign.
type campaignEvents struct {
	submitted, start time.Time // cp_submitted, campaign_start
	jobs             map[string]*jobEvents
}

// indexEvents groups the event log by campaign. A job id is its
// campaign's id, a dot and the task name, which is how worker events
// (which carry no campaign field) find their campaign.
func indexEvents(evs []obs.Event) map[string]*campaignEvents {
	camps := make(map[string]*campaignEvents)
	camp := func(id string) *campaignEvents {
		c := camps[id]
		if c == nil {
			c = &campaignEvents{jobs: make(map[string]*jobEvents)}
			camps[id] = c
		}
		return c
	}
	job := func(id string) *jobEvents {
		key, _, ok := strings.Cut(id, ".")
		if !ok {
			return &jobEvents{}
		}
		c := camp(key)
		j := c.jobs[id]
		if j == nil {
			j = &jobEvents{}
			c.jobs[id] = j
		}
		return j
	}
	for _, ev := range evs {
		switch ev.Name {
		case "cp_submitted":
			camp(ev.Campaign).submitted = ev.Time
		case "campaign_start":
			camp(ev.Campaign).start = ev.Time
		case "lease_granted":
			job(ev.Job).leased = ev.Time
		case "job_started":
			j := job(ev.Job)
			j.started, j.worker = ev.Time, ev.Worker
		case "job_done":
			job(ev.Job).done = ev.Time
		case "result_accepted":
			job(ev.Job).accepted = ev.Time
		}
	}
	return camps
}

// tracedLayers turns one traced window into the per-layer metrics and
// adds the fleet-side spans to rec. before is the state of the fleet's
// probes when the window opened: the warm-up went through them too.
func tracedLayers(f *inprocFleet, rr roundsResult, tally *httpTally, rec *recorder, before probeMark, m metrics) error {
	evs, err := f.sink.events()
	if err != nil {
		return err
	}
	camps := indexEvents(evs)
	f.mu.Lock()
	builds := append([]buildSpan(nil), f.builds...)
	f.mu.Unlock()

	var (
		latency, submitMs, fetchMs, pmfMs, dispatchMs, firstLeaseMs []float64
		leaseRTT, commitMs, buildMs, pullMs                         []float64
		sh                                                          shares
		nShares, donePulls                                          int
	)
	for _, s := range rr.Served {
		if s.Err != nil || s.end.IsZero() {
			continue
		}
		ce := camps[s.ID]
		if ce == nil || len(ce.jobs) != s.Pulls {
			return fmt.Errorf("campaign %s: event log has %d of its %d jobs", s.ID, lenJobs(ce), s.Pulls)
		}
		donePulls += s.Pulls
		latency = append(latency, s.Latency.Seconds())
		submitMs = append(submitMs, ms(s.submitted.Sub(s.submitAt)))
		fetchMs = append(fetchMs, ms(s.fetched.Sub(s.doneAt)))
		pmfMs = append(pmfMs, ms(s.end.Sub(s.fetched)))
		dispatchMs = append(dispatchMs, ms(ce.start.Sub(ce.submitted)))

		tl := campaignTimeline{Submit: s.submitAt.UnixNano(), End: s.end.UnixNano(), FirstLease: math.MaxInt64}
		waitSpan := rec.addNs(s.ID, "dist.campaign", s.waitSpan, ce.start.UnixNano(), s.doneAt.UnixNano())
		for id, j := range ce.jobs {
			if j.leased.IsZero() || j.started.IsZero() || j.done.IsZero() || j.accepted.IsZero() {
				return fmt.Errorf("job %s: incomplete event record %+v", id, *j)
			}
			jt := jobTimeline{Worker: j.worker, Started: j.started.UnixNano(), Done: j.done.UnixNano()}
			lease := rec.addNs(s.ID, "dist.lease", waitSpan, j.leased.UnixNano(), j.accepted.UnixNano())
			rec.addNs(s.ID, "dist.lease_rtt", lease, j.leased.UnixNano(), jt.Started)
			for _, b := range builds {
				if b.Worker == j.worker && !b.Start.Before(j.started) && !b.End.After(j.done) {
					jt.BuildNs = int64(b.End.Sub(b.Start))
					rec.add(s.ID, "core.build", lease, b.Start, b.End)
					rec.add(s.ID, "smd.pull", lease, b.End, j.done)
				}
			}
			rec.addNs(s.ID, "dist.result_commit", lease, jt.Done, j.accepted.UnixNano())
			tl.Jobs = append(tl.Jobs, jt)
			tl.FirstLease = min(tl.FirstLease, j.leased.UnixNano())
			tl.LastResult = max(tl.LastResult, j.accepted.UnixNano())
			leaseRTT = append(leaseRTT, ms(j.started.Sub(j.leased)))
			commitMs = append(commitMs, ms(j.accepted.Sub(j.done)))
			buildMs = append(buildMs, float64(jt.BuildNs)/1e6)
			pullMs = append(pullMs, float64(jt.Done-jt.Started-jt.BuildNs)/1e6)
		}
		firstLeaseMs = append(firstLeaseMs, float64(tl.FirstLease-ce.start.UnixNano())/1e6)
		p := partition(tl, f.names)
		sh.Head += p.Head
		sh.Build += p.Build
		sh.Pull += p.Pull
		sh.Idle += p.Idle
		sh.Tail += p.Tail
		nShares++
	}
	if nShares == 0 {
		return fmt.Errorf("traced window produced no completed campaign")
	}
	n := float64(nShares)
	sh = shares{sh.Head / n, sh.Build / n, sh.Pull / n, sh.Idle / n, sh.Tail / n}
	if math.Abs(sh.sum()-1) > 0.01 {
		return fmt.Errorf("time shares sum to %.4f, not 1: %+v", sh.sum(), sh)
	}
	for _, b := range rr.Bulk {
		donePulls += b.JobsDone
	}
	perPull := func(v float64) float64 { return v / float64(donePulls) }

	m.set("core.build_ms", analysis.Median(buildMs))
	m.set("core.build_share", sh.Build)
	m.set("smd.pull_ms", analysis.Median(pullMs))
	m.set("smd.pull_share", sh.Pull)
	m.set("smd.checkpoints_per_pull", perPull(float64(rr.Dist.Checkpoints)))

	now := f.mark()
	m.set("wire.msgs_per_pull", perPull(float64(now.msgs-before.msgs)))
	f.conns.mu.Lock()
	rtt := append([]float64(nil), f.conns.rttNs[before.rtts:now.rtts]...)
	f.conns.mu.Unlock()
	m.set("wire.bytes_per_pull", perPull(float64(rr.Dist.BytesIn+rr.Dist.BytesOut)))
	m.set("wire.rtt_p50_us", analysis.Quantile(rtt, 0.5)/1e3)
	m.set("wire.rtt_p90_us", analysis.Quantile(rtt, 0.9)/1e3)
	m.set("wire.ckpt_raw_bytes_per_pull", perPull(float64(now.ckptRaw-before.ckptRaw)))
	m.set("wire.ckpt_wire_bytes_per_pull", perPull(float64(now.ckptWire-before.ckptWire)))

	m.set("dist.first_lease_wait_ms", analysis.Median(firstLeaseMs))
	m.set("dist.lease_rtt_p50_ms", analysis.Median(leaseRTT))
	m.set("dist.result_commit_p50_ms", analysis.Median(commitMs))
	m.set("dist.idle_share", sh.Idle)
	m.set("dist.polls_per_pull", perPull(float64(rr.Dist.WorkPolls)))
	m.set("dist.pulls_per_assignment", float64(donePulls)/float64(rr.Dist.Assignments))
	m.set("dist.retries", float64(rr.Dist.Retries))
	m.set("dist.lease_expiries", float64(rr.Dist.LeaseExpiries))
	m.set("dist.requests_shed", float64(rr.Dist.RequestsShed))
	m.set("dist.speculations_launched", float64(rr.Dist.SpeculationsLaunched))
	m.set("dist.deltas_folded", float64(rr.Dist.DeltasFolded))
	m.set("dist.delta_base_misses", float64(rr.Dist.DeltaBaseMisses))

	var jBytes, jSyncs, jSyncNs, spoolWrites, spoolSyncNs float64
	for _, op := range f.distFS.snapshot()[before.distOps:] {
		switch {
		case op.Spool && op.Op == "rename":
			spoolWrites++
		case op.Spool && (op.Op == "sync" || op.Op == "syncdir"):
			spoolSyncNs += float64(op.Dur)
		case !op.Spool && op.Op == "write":
			jBytes += float64(op.Bytes)
		case !op.Spool && op.Op == "sync":
			jSyncs++
			jSyncNs += float64(op.Dur)
		}
		if op.Op == "sync" || op.Op == "syncdir" {
			name := "dist.journal.sync"
			if op.Spool {
				name = "dist.spool.sync"
			}
			rec.add("", name, 0, op.Start, op.Start.Add(op.Dur))
		}
	}
	m.set("dist.journal_bytes_per_pull", perPull(jBytes))
	m.set("dist.journal_fsyncs_per_pull", perPull(jSyncs))
	m.set("dist.journal_sync_ms_per_pull", perPull(jSyncNs/1e6))
	m.set("dist.spool_writes_per_pull", perPull(spoolWrites))
	m.set("dist.spool_sync_ms_per_pull", perPull(spoolSyncNs/1e6))

	var qSyncs, qSyncNs float64
	for _, op := range f.queueFS.snapshot()[before.queueOps:] {
		if op.Op == "sync" {
			qSyncs++
			qSyncNs += float64(op.Dur)
			rec.add("", "controlplane.queue.sync", 0, op.Start, op.Start.Add(op.Dur))
		}
	}
	campaigns := float64(len(rr.Served) + len(rr.Bulk))
	m.set("controlplane.queue_fsyncs_per_campaign", qSyncs/campaigns)
	m.set("controlplane.queue_sync_ms_per_campaign", qSyncNs/1e6/campaigns)
	m.set("controlplane.submit_ms", analysis.Median(submitMs))
	m.set("controlplane.dispatch_wait_ms", analysis.Median(dispatchMs))
	m.set("controlplane.result_fetch_ms", analysis.Median(fetchMs))
	tally.mu.Lock()
	m.set("controlplane.status_poll_us", analysis.Median(tally.statusNs)/1e3)
	m.set("controlplane.result_bytes", analysis.Median(tally.resultBytes))
	tally.mu.Unlock()
	m.set("controlplane.head_share", sh.Head)
	m.set("controlplane.tail_share", sh.Tail)
	pct, ok := tailPercentile(len(latency))
	if !ok {
		pct = 100 // too few campaigns for a percentile: the slowest one
	}
	m.set("controlplane.submit_to_pmf_tail_s", analysis.Quantile(latency, pct/100))
	m.set("controlplane.submit_to_pmf_tail_pct", pct)
	m.set("controlplane.submit_to_pmf_samples", float64(len(latency)))
	m.set("jarzynski.pmf_ms", analysis.Median(pmfMs))
	m.set("traced.submit_to_pmf_s", analysis.Median(latency))
	if len(rr.Local) > 0 {
		m.set("dist.overhead_ratio", analysis.Median(latency)/analysis.Median(seconds(rr.Local)))
	}
	return nil
}

func lenJobs(c *campaignEvents) int {
	if c == nil {
		return 0
	}
	return len(c.jobs)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// probeMark is the cumulative state of the traced fleet's probes at one
// instant; two marks bracket a window.
type probeMark struct {
	ckptRaw, ckptWire             int64
	msgs, rtts, distOps, queueOps int
}

func (f *inprocFleet) mark() probeMark {
	ws := f.workerStats()
	f.conns.mu.Lock()
	defer f.conns.mu.Unlock()
	return probeMark{
		ckptRaw: ws.CheckpointRawBytes, ckptWire: ws.CheckpointBytes,
		msgs: f.conns.msgs, rtts: len(f.conns.rttNs),
		distOps: len(f.distFS.snapshot()), queueOps: len(f.queueFS.snapshot()),
	}
}
