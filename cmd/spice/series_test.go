package main

import (
	"context"
	"encoding/json"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/obs"
)

// seriesSystem is a 3-bead system that pulls in milliseconds.
func seriesSystem() core.SystemConfig {
	return core.SystemConfig{Beads: 3, StartZ: 5, EquilSteps: 50, DT: 0.02, Temp: 300, PoreFriction: 1, EngineWorkers: 1}
}

// TestMetricsSeriesSet pins the /metrics series set (family, type and
// label names, not values) of the three registries the binaries serve:
// spiced -serve's coordinator plus control plane after one finished
// campaign, one rejected submission and one quota skip; a spiced worker
// after its jobs; and spice's local runner after one pull.
func TestMetricsSeriesSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a served campaign")
	}
	sys := seriesSystem()
	sysJSON, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveReg, workerReg := obs.NewRegistry(), obs.NewRegistry()
	dcfg := dist.Defaults()
	dcfg.StateDir = t.TempDir()
	dcfg.Metrics = serveReg
	co, err := dist.NewCoordinator(ln, sysJSON, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	cp, err := controlplane.New(controlplane.Config{
		Coordinator: co,
		Quotas:      map[string]controlplane.Quota{"alice": {MaxRunning: 1}},
		Metrics:     serveReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()

	// One worker with two slots: while one slot pulls alice's first job,
	// the other's poll meets her MaxRunning quota.
	wcfg := dist.Defaults()
	wcfg.Slots = 2
	wcfg.Reconnect = false
	wcfg.Metrics = workerReg
	w, err := dist.NewWorker("w0", "", ln.Addr().String(), core.BuildFromJSON, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go w.Run(ctx)
	waitFor(t, "both slots parked", func() bool { return co.Stats().ParkedPolls == 2 })

	spec := campaign.Spec{Kappas: []float64{100}, Velocities: []float64{800}, Replicas: 2, Distance: 3, Seed: 5}
	if _, err := cp.Submit(campaign.Spec{}, dist.CampaignTag{Tenant: "bob"}); err == nil {
		t.Fatal("empty spec accepted")
	}
	id, err := cp.Submit(spec, dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "campaign done", func() bool {
		c, _ := cp.Get(id)
		return c.State == controlplane.StateDone
	})

	local := obs.NewRegistry()
	one := spec
	one.Replicas = 1
	if _, err := localRunner(&sys, 1, local, nil).Run(one); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		reg  *obs.Registry
		want string
	}{
		{"serve", serveReg, wantServeSeries},
		{"worker", workerReg, wantWorkerSeries},
		{"local", local, wantLocalSeries},
	} {
		got := strings.Join(seriesSet(t, c.reg), "\n")
		if want := strings.TrimSpace(c.want); got != want {
			t.Errorf("%s series set changed:\n got:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seriesSet renders reg and returns one "family type sample{labels}" line
// per distinct series shape, sorted.
func seriesSet(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var family, typ string
	seen := make(map[string]bool)
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, typ, _ = strings.Cut(rest, " ")
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if end < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		seen[family+" "+typ+" "+line[:end]+"{"+strings.Join(labelNames(t, line[end:]), ",")+"}"] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// labelNames parses the label names off `{a="x",b="y"} v` (or ` v`).
func labelNames(t *testing.T, s string) []string {
	t.Helper()
	if !strings.HasPrefix(s, "{") {
		return nil
	}
	var names []string
	s = s[1:]
	for !strings.HasPrefix(s, "}") {
		name, rest, ok := strings.Cut(s, `="`)
		if !ok {
			t.Fatalf("malformed labels %q", s)
		}
		names = append(names, name)
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' {
				i++
			}
		}
		if i >= len(rest) {
			t.Fatalf("unterminated label value in %q", s)
		}
		s = strings.TrimPrefix(rest[i+1:], ",")
	}
	return names
}

const wantServeSeries = `
spice_cp_campaigns gauge spice_cp_campaigns{tenant,state}
spice_cp_campaigns_finished_total counter spice_cp_campaigns_finished_total{tenant,state}
spice_cp_http_shed_total counter spice_cp_http_shed_total{}
spice_cp_quota_skips_total counter spice_cp_quota_skips_total{tenant}
spice_cp_rejections_total counter spice_cp_rejections_total{tenant,reason}
spice_cp_submissions_total counter spice_cp_submissions_total{tenant}
spice_cp_tenant_usage gauge spice_cp_tenant_usage{tenant}
spice_dist_adoptions_total counter spice_dist_adoptions_total{}
spice_dist_assignments_total counter spice_dist_assignments_total{}
spice_dist_breaker_closes_total counter spice_dist_breaker_closes_total{}
spice_dist_breaker_probes_total counter spice_dist_breaker_probes_total{}
spice_dist_breaker_trips_total counter spice_dist_breaker_trips_total{}
spice_dist_bytes_in_total counter spice_dist_bytes_in_total{}
spice_dist_bytes_out_total counter spice_dist_bytes_out_total{}
spice_dist_checkpoints_rejected_total counter spice_dist_checkpoints_rejected_total{}
spice_dist_checkpoints_total counter spice_dist_checkpoints_total{}
spice_dist_delta_base_misses_total counter spice_dist_delta_base_misses_total{}
spice_dist_deltas_folded_total counter spice_dist_deltas_folded_total{}
spice_dist_disconnects_total counter spice_dist_disconnects_total{}
spice_dist_duplicate_results_dropped_total counter spice_dist_duplicate_results_dropped_total{}
spice_dist_failures_total counter spice_dist_failures_total{}
spice_dist_first_lease_wait_seconds histogram spice_dist_first_lease_wait_seconds_bucket{le}
spice_dist_first_lease_wait_seconds histogram spice_dist_first_lease_wait_seconds_count{}
spice_dist_first_lease_wait_seconds histogram spice_dist_first_lease_wait_seconds_sum{}
spice_dist_jobs_total counter spice_dist_jobs_total{}
spice_dist_journal_tail_condition gauge spice_dist_journal_tail_condition{}
spice_dist_lease_expiries_total counter spice_dist_lease_expiries_total{}
spice_dist_parked_polls gauge spice_dist_parked_polls{}
spice_dist_poll_park_seconds histogram spice_dist_poll_park_seconds_bucket{le}
spice_dist_poll_park_seconds histogram spice_dist_poll_park_seconds_count{}
spice_dist_poll_park_seconds histogram spice_dist_poll_park_seconds_sum{}
spice_dist_replayed_records_total counter spice_dist_replayed_records_total{}
spice_dist_restarts_total counter spice_dist_restarts_total{}
spice_dist_resumes_total counter spice_dist_resumes_total{}
spice_dist_retries_total counter spice_dist_retries_total{}
spice_dist_site_assignments gauge spice_dist_site_assignments{site}
spice_dist_site_breaker_state gauge spice_dist_site_breaker_state{site,state}
spice_dist_site_breaker_trips gauge spice_dist_site_breaker_trips{site}
spice_dist_site_completions gauge spice_dist_site_completions{site}
spice_dist_site_disconnects gauge spice_dist_site_disconnects{site}
spice_dist_site_failures gauge spice_dist_site_failures{site}
spice_dist_site_latency_seconds gauge spice_dist_site_latency_seconds{site}
spice_dist_site_lease_expiries gauge spice_dist_site_lease_expiries{site}
spice_dist_site_rate_steps_per_second gauge spice_dist_site_rate_steps_per_second{site}
spice_dist_site_spec_lost gauge spice_dist_site_spec_lost{site}
spice_dist_site_spec_won gauge spice_dist_site_spec_won{site}
spice_dist_site_strikes gauge spice_dist_site_strikes{site}
spice_dist_speculations_launched_total counter spice_dist_speculations_launched_total{}
spice_dist_speculations_wasted_total counter spice_dist_speculations_wasted_total{}
spice_dist_speculations_won_total counter spice_dist_speculations_won_total{}
spice_dist_stragglers_detected_total counter spice_dist_stragglers_detected_total{}
spice_dist_truncated_tail_bytes_total counter spice_dist_truncated_tail_bytes_total{}
spice_overload_connected_workers gauge spice_overload_connected_workers{}
spice_overload_inflight gauge spice_overload_inflight{}
spice_overload_requests_shed_total counter spice_overload_requests_shed_total{}
spice_storage_compactions_total counter spice_storage_compactions_total{journal}
spice_storage_degradations_total counter spice_storage_degradations_total{journal}
spice_storage_degraded gauge spice_storage_degraded{journal}
spice_storage_errors_total counter spice_storage_errors_total{journal}
spice_storage_journal_bytes gauge spice_storage_journal_bytes{journal}
spice_storage_recoveries_total counter spice_storage_recoveries_total{journal}
spice_storage_retries_total counter spice_storage_retries_total{journal}
spice_wire_v1_conns_total counter spice_wire_v1_conns_total{}
spice_wire_work_polls_total counter spice_wire_work_polls_total{}
`

const wantWorkerSeries = `
spice_md_neighbor_pairs gauge spice_md_neighbor_pairs{}
spice_md_neighbor_rebuilds_total counter spice_md_neighbor_rebuilds_total{}
spice_md_step_seconds histogram spice_md_step_seconds_bucket{le}
spice_md_step_seconds histogram spice_md_step_seconds_count{}
spice_md_step_seconds histogram spice_md_step_seconds_sum{}
spice_worker_checkpoint_bytes_total counter spice_worker_checkpoint_bytes_total{worker}
spice_worker_checkpoint_deltas_total counter spice_worker_checkpoint_deltas_total{worker}
spice_worker_checkpoint_raw_bytes_total counter spice_worker_checkpoint_raw_bytes_total{worker}
spice_worker_checkpoints_sent_total counter spice_worker_checkpoints_sent_total{worker}
spice_worker_jobs_abandoned_total counter spice_worker_jobs_abandoned_total{worker}
spice_worker_jobs_done_total counter spice_worker_jobs_done_total{worker}
spice_worker_jobs_failed_total counter spice_worker_jobs_failed_total{worker}
spice_worker_jobs_started_total counter spice_worker_jobs_started_total{worker}
spice_worker_reconnects_total counter spice_worker_reconnects_total{worker}
spice_worker_slots gauge spice_worker_slots{worker}
spice_worker_steps_total counter spice_worker_steps_total{worker}
`

const wantLocalSeries = `
spice_dist_adoptions_total counter spice_dist_adoptions_total{}
spice_dist_assignments_total counter spice_dist_assignments_total{}
spice_dist_breaker_closes_total counter spice_dist_breaker_closes_total{}
spice_dist_breaker_probes_total counter spice_dist_breaker_probes_total{}
spice_dist_breaker_trips_total counter spice_dist_breaker_trips_total{}
spice_dist_bytes_in_total counter spice_dist_bytes_in_total{}
spice_dist_bytes_out_total counter spice_dist_bytes_out_total{}
spice_dist_checkpoints_rejected_total counter spice_dist_checkpoints_rejected_total{}
spice_dist_checkpoints_total counter spice_dist_checkpoints_total{}
spice_dist_delta_base_misses_total counter spice_dist_delta_base_misses_total{}
spice_dist_deltas_folded_total counter spice_dist_deltas_folded_total{}
spice_dist_disconnects_total counter spice_dist_disconnects_total{}
spice_dist_duplicate_results_dropped_total counter spice_dist_duplicate_results_dropped_total{}
spice_dist_failures_total counter spice_dist_failures_total{}
spice_dist_jobs_total counter spice_dist_jobs_total{}
spice_dist_journal_tail_condition gauge spice_dist_journal_tail_condition{}
spice_dist_lease_expiries_total counter spice_dist_lease_expiries_total{}
spice_dist_parked_polls gauge spice_dist_parked_polls{}
spice_dist_replayed_records_total counter spice_dist_replayed_records_total{}
spice_dist_restarts_total counter spice_dist_restarts_total{}
spice_dist_resumes_total counter spice_dist_resumes_total{}
spice_dist_retries_total counter spice_dist_retries_total{}
spice_dist_site_assignments gauge spice_dist_site_assignments{site}
spice_dist_site_breaker_state gauge spice_dist_site_breaker_state{site,state}
spice_dist_site_breaker_trips gauge spice_dist_site_breaker_trips{site}
spice_dist_site_completions gauge spice_dist_site_completions{site}
spice_dist_site_disconnects gauge spice_dist_site_disconnects{site}
spice_dist_site_failures gauge spice_dist_site_failures{site}
spice_dist_site_latency_seconds gauge spice_dist_site_latency_seconds{site}
spice_dist_site_lease_expiries gauge spice_dist_site_lease_expiries{site}
spice_dist_site_rate_steps_per_second gauge spice_dist_site_rate_steps_per_second{site}
spice_dist_site_spec_lost gauge spice_dist_site_spec_lost{site}
spice_dist_site_spec_won gauge spice_dist_site_spec_won{site}
spice_dist_site_strikes gauge spice_dist_site_strikes{site}
spice_dist_speculations_launched_total counter spice_dist_speculations_launched_total{}
spice_dist_speculations_wasted_total counter spice_dist_speculations_wasted_total{}
spice_dist_speculations_won_total counter spice_dist_speculations_won_total{}
spice_dist_stragglers_detected_total counter spice_dist_stragglers_detected_total{}
spice_dist_truncated_tail_bytes_total counter spice_dist_truncated_tail_bytes_total{}
spice_md_neighbor_pairs gauge spice_md_neighbor_pairs{}
spice_md_neighbor_rebuilds_total counter spice_md_neighbor_rebuilds_total{}
spice_md_step_seconds histogram spice_md_step_seconds_bucket{le}
spice_md_step_seconds histogram spice_md_step_seconds_count{}
spice_md_step_seconds histogram spice_md_step_seconds_sum{}
spice_overload_connected_workers gauge spice_overload_connected_workers{}
spice_overload_inflight gauge spice_overload_inflight{}
spice_overload_requests_shed_total counter spice_overload_requests_shed_total{}
spice_storage_compactions_total counter spice_storage_compactions_total{journal}
spice_storage_degradations_total counter spice_storage_degradations_total{journal}
spice_storage_degraded gauge spice_storage_degraded{journal}
spice_storage_errors_total counter spice_storage_errors_total{journal}
spice_storage_journal_bytes gauge spice_storage_journal_bytes{journal}
spice_storage_recoveries_total counter spice_storage_recoveries_total{journal}
spice_storage_retries_total counter spice_storage_retries_total{journal}
spice_wire_v1_conns_total counter spice_wire_v1_conns_total{}
spice_wire_work_polls_total counter spice_wire_work_polls_total{}
`
