package dist

// Bridges from the dist stats surface to the obs registry. The
// coordinator's /metrics families are generated at scrape time from the
// same Snapshot the statsfmt tables print and the tests assert on —
// there is no second set of counters to drift, so a scrape taken after
// a campaign finishes equals the final Stats exactly, field for field.

import (
	"sort"
	"sync/atomic"
	"time"

	"spice/internal/md"
	"spice/internal/obs"
)

// RegisterMetrics registers a scrape-time collector on reg that renders
// co's two latency histograms and its full Snapshot: every campaign
// counter as spice_dist_*, and the per-site health table as
// spice_dist_site_* gauges labeled by site. A job's history is
// deliberately not exported (unbounded label cardinality): its lease_*
// events on /debug/events and the -obs-events file tell it.
func RegisterMetrics(reg *obs.Registry, co *Coordinator) {
	reg.RegisterCollector(func(e *obs.Emitter) {
		e.Histogram("spice_dist_first_lease_wait_seconds", "Campaign install to its first lease grant.", co.firstLeaseWait)
		e.Histogram("spice_dist_poll_park_seconds",
			"How long a work poll that found nothing runnable was held before its reply.", co.pollPark)
		snap := co.StatsSnapshot()
		s := snap.Stats
		e.Counter("spice_dist_jobs_total", "Jobs accepted into campaigns.", float64(s.Jobs))
		e.Counter("spice_dist_assignments_total", "Leases granted (first attempts + retries).", float64(s.Assignments))
		e.Counter("spice_dist_retries_total", "Reassignments after failure, expiry or disconnect.", float64(s.Retries))
		e.Counter("spice_dist_resumes_total", "Assignments that carried a resume checkpoint.", float64(s.Resumes))
		e.Counter("spice_dist_lease_expiries_total", "Leases revoked for missed heartbeats.", float64(s.LeaseExpiries))
		e.Counter("spice_dist_disconnects_total", "Leases revoked because the worker connection died.", float64(s.Disconnects))
		e.Counter("spice_dist_failures_total", "Explicit fail messages from workers.", float64(s.Failures))
		e.Counter("spice_dist_checkpoints_total", "Progress messages that carried a checkpoint.", float64(s.Checkpoints))
		e.Counter("spice_dist_bytes_in_total", "Bytes received from workers.", float64(s.BytesIn))
		e.Counter("spice_dist_bytes_out_total", "Bytes sent to workers.", float64(s.BytesOut))
		e.Counter("spice_dist_restarts_total", "Journal opens that replayed prior state.", float64(s.Restarts))
		e.Counter("spice_dist_replayed_records_total", "Journal records replayed at open.", float64(s.ReplayedRecords))
		e.Counter("spice_dist_truncated_tail_bytes_total", "Torn journal tail bytes dropped at open.", float64(s.TruncatedTailBytes))
		e.Counter("spice_dist_duplicate_results_dropped_total", "Retransmitted result/fail lines acked and dropped.", float64(s.DuplicateResultsDropped))
		e.Counter("spice_dist_adoptions_total", "In-flight jobs re-leased to their live worker.", float64(s.Adoptions))
		e.Gauge("spice_dist_journal_tail_condition", "Journal tail at last recovery: 0 clean, 1 torn, 2 corrupt.", float64(s.TornTail))
		// The journal label names the one log behind the spice_storage_*
		// family.
		s.storage().Emit(e, "dist")
		e.Counter("spice_dist_stragglers_detected_total", "Leases flagged as stragglers (progress rate below HedgeFraction of the fleet median).", float64(s.StragglersDetected))
		e.Counter("spice_dist_speculations_launched_total", "Hedge leases granted on a second site.", float64(s.SpeculationsLaunched))
		e.Counter("spice_dist_speculations_won_total", "Jobs whose accepted result came from a hedge lease.", float64(s.SpeculationsWon))
		e.Counter("spice_dist_speculations_wasted_total", "Concurrent leases dropped when the other attempt won.", float64(s.SpeculationsWasted))
		e.Counter("spice_dist_breaker_trips_total", "Site breakers opened (quarantine events).", float64(s.BreakerTrips))
		e.Counter("spice_dist_breaker_probes_total", "Half-open probe jobs dispatched.", float64(s.BreakerProbes))
		e.Counter("spice_dist_breaker_closes_total", "Breakers closed again by a successful result.", float64(s.BreakerCloses))
		e.Gauge("spice_dist_parked_polls", "Work polls held unanswered until there is work (idle workers).", float64(s.ParkedPolls))
		e.Counter("spice_overload_requests_shed_total", "Work polls answered with a shed wait over the in-flight cap.", float64(s.RequestsShed))
		e.Gauge("spice_overload_inflight", "Requests in processing (a parked poll is not).", float64(s.InflightRequests))
		e.Gauge("spice_overload_connected_workers", "Live worker connections.", float64(s.ConnectedWorkers))
		e.Counter("spice_wire_v1_conns_total", "Connections granted the v1 wire protocol (every accepted connection).", float64(s.WireV1Conns))
		e.Counter("spice_wire_work_polls_total", "Work-poll requests received (shed or served).", float64(s.WorkPolls))
		e.Counter("spice_dist_deltas_folded_total", "Delta checkpoints folded into complete images.", float64(s.DeltasFolded))
		e.Counter("spice_dist_delta_base_misses_total", "Deltas rejected for an unknown base (answered NeedFull).", float64(s.DeltaBaseMisses))
		e.Counter("spice_dist_checkpoints_rejected_total", "Checkpoint payloads that failed to decode.", float64(s.CheckpointsRejected))

		names := make([]string, 0, len(snap.Sites))
		for name := range snap.Sites {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := snap.Sites[name]
			site := obs.Label{Name: "site", Value: name}
			e.Gauge("spice_dist_site_assignments", "Leases granted to this site.", float64(st.Assignments), site)
			e.Gauge("spice_dist_site_completions", "Accepted results from this site.", float64(st.Completions), site)
			e.Gauge("spice_dist_site_failures", "Explicit fail messages from this site.", float64(st.Failures), site)
			e.Gauge("spice_dist_site_lease_expiries", "Lease expiries charged to this site.", float64(st.LeaseExpiries), site)
			e.Gauge("spice_dist_site_disconnects", "Disconnects with an active lease.", float64(st.Disconnects), site)
			e.Gauge("spice_dist_site_spec_won", "Speculation races this site won.", float64(st.SpecWon), site)
			e.Gauge("spice_dist_site_spec_lost", "Leases this site lost to a hedge elsewhere.", float64(st.SpecLost), site)
			e.Gauge("spice_dist_site_breaker_trips", "Quarantine events for this site.", float64(st.BreakerTrips), site)
			e.Gauge("spice_dist_site_strikes", "Current consecutive-failure strikes.", float64(st.Strikes), site)
			e.Gauge("spice_dist_site_breaker_state", "Current breaker state, 1 on the active state.", 1,
				site, obs.Label{Name: "state", Value: st.Breaker})
			e.Gauge("spice_dist_site_rate_steps_per_second", "Smoothed checkpoint-derived progress rate.", st.RateEWMA, site)
			e.Gauge("spice_dist_site_latency_seconds", "Smoothed lease-grant to result latency.", st.LatencyEWMA.Seconds(), site)
		}
	})
}

// WorkerStats is the snapshot of one Worker's execution counters.
type WorkerStats struct {
	JobsStarted   int64
	JobsDone      int64
	JobsFailed    int64
	JobsAbandoned int64 // leases revoked under the worker (lost races, drains)
	// CheckpointsSent counts checkpoints actually put on the wire;
	// CheckpointBytes is the bytes that traveled (post-compression,
	// post-delta) while CheckpointRawBytes is the serialized documents
	// they reconstruct to — raw/wire is the transport win.
	CheckpointsSent    int64
	CheckpointBytes    int64
	CheckpointRawBytes int64
	CheckpointDeltas   int64 // checkpoints that traveled as deltas
	Steps              int64 // MD steps advanced across all jobs (checkpoint deltas)
	Reconnects         int64 // successful re-dials after a transport failure
}

// RegisterMetrics registers a scrape-time collector on reg rendering
// the worker's execution counters as spice_worker_* metrics labeled by
// worker name, plus the md-layer instruments of every engine the worker
// builds from then on. Steps/sec is the derivative of
// spice_worker_steps_total — scrapers compute it with rate(), so the
// worker exports only the monotone counter.
func (w *Worker) RegisterMetrics(reg *obs.Registry) {
	w.md = NewEngineMetrics()
	reg.RegisterCollector(func(e *obs.Emitter) {
		w.md.Collect(e)
		st := w.WorkerStats()
		wl := obs.Label{Name: "worker", Value: w.Name}
		e.Counter("spice_worker_jobs_started_total", "Job leases this worker began executing.", float64(st.JobsStarted), wl)
		e.Counter("spice_worker_jobs_done_total", "Jobs completed and reported.", float64(st.JobsDone), wl)
		e.Counter("spice_worker_jobs_failed_total", "Jobs that failed locally.", float64(st.JobsFailed), wl)
		e.Counter("spice_worker_jobs_abandoned_total", "Leases revoked mid-pull (lost races, drains).", float64(st.JobsAbandoned), wl)
		e.Counter("spice_worker_checkpoints_sent_total", "Checkpoints streamed to the coordinator.", float64(st.CheckpointsSent), wl)
		e.Counter("spice_worker_checkpoint_bytes_total", "Checkpoint bytes as they traveled on the wire (post-compression, post-delta).", float64(st.CheckpointBytes), wl)
		e.Counter("spice_worker_checkpoint_raw_bytes_total", "Serialized checkpoint document bytes before compression/delta.", float64(st.CheckpointRawBytes), wl)
		e.Counter("spice_worker_checkpoint_deltas_total", "Checkpoints that traveled as deltas against an acknowledged base.", float64(st.CheckpointDeltas), wl)
		e.Counter("spice_worker_steps_total", "MD steps advanced across all jobs.", float64(st.Steps), wl)
		e.Counter("spice_worker_reconnects_total", "Successful re-dials after a transport failure.", float64(st.Reconnects), wl)
		e.Gauge("spice_worker_slots", "Configured concurrent job slots.", float64(w.cfg.Slots), wl)
	})
}

// mdStepSampleEvery is the step-latency sampling stride: 1 in 64 steps
// is timed. Dense enough that a few seconds of simulation fills the
// histogram, sparse enough that two clock reads per sample vanish next
// to a force evaluation.
const mdStepSampleEvery = 64

// EngineMetrics is the md-layer instrumentation of the engines one owner
// builds (a Worker, or spice's local runner): every 64th Step is timed
// into the spice_md_step_seconds histogram, and neighbor-list rebuilds
// feed spice_md_neighbor_rebuilds_total and the spice_md_neighbor_pairs
// gauge. Engines are transient (one per job), so the instruments
// aggregate across every engine the owner instruments. All observer work
// is atomics-only, so the force loop stays allocation-free.
type EngineMetrics struct {
	step     *obs.Histogram
	rebuilds atomic.Int64
	pairs    atomic.Int64
}

// NewEngineMetrics returns empty md-layer instruments.
func NewEngineMetrics() *EngineMetrics {
	// 1 µs … ~4 s in ×4 decades: CG demo systems step in the tens of
	// microseconds, production-scale ones in the tens of milliseconds.
	return &EngineMetrics{step: obs.NewHistogram(obs.ExpBuckets(1e-6, 4, 12))}
}

// Instrument installs the sampled observers on eng. A nil m is a no-op,
// so owners without a registry need no check.
func (m *EngineMetrics) Instrument(eng *md.Engine) {
	if m == nil {
		return
	}
	eng.SetStepObserver(mdStepSampleEvery, func(d time.Duration) { m.step.Observe(d.Seconds()) })
	eng.SetNeighborObserver(func(n int) {
		m.rebuilds.Add(1)
		m.pairs.Store(int64(n))
	})
}

// Collect emits the md-layer families; register it on the owner's
// registry.
func (m *EngineMetrics) Collect(e *obs.Emitter) {
	e.Histogram("spice_md_step_seconds", "Sampled MD step wall-clock latency (1-in-64 steps).", m.step)
	e.Counter("spice_md_neighbor_rebuilds_total", "Neighbor-list rebuilds across all engines on this process.", float64(m.rebuilds.Load()))
	e.Gauge("spice_md_neighbor_pairs", "Pair count emitted by the most recent neighbor-list rebuild.", float64(m.pairs.Load()))
}
