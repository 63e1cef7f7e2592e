package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"regexp"
	"strings"
	"testing"

	"spice/internal/campaign"
	"spice/internal/md"
	"spice/internal/obs"
)

// TestLocalRunnerMatchesCampaignRunner pins everything dist.LocalRunner
// adds around campaign.LocalRunner's pool: merged logs bit-identical on
// the same spec, the Snapshot totals and the one synthetic "local" site,
// and exactly one job_started + job_done pair per job from a "local/N"
// worker.
func TestLocalRunnerMatchesCampaignRunner(t *testing.T) {
	spec := testSpec()
	want := localBaseline(t, spec)

	var events bytes.Buffer
	lr := &LocalRunner{Build: localBuild, Workers: 3, Events: obs.NewEventLog(&events, 0)}
	got, err := lr.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got)

	jobs := len(spec.Tasks())
	snap := lr.StatsSnapshot()
	if st := snap.Stats; st.Jobs != jobs || st.Assignments != jobs || st.Failures != 0 {
		t.Fatalf("stats %+v, want %d jobs and assignments", st, jobs)
	}
	wantSite := SiteStats{Site: "local", Assignments: jobs, Completions: jobs, Breaker: "closed"}
	if len(snap.Sites) != 1 || snap.Sites["local"] != wantSite {
		t.Fatalf("sites %+v, want only %+v", snap.Sites, wantSite)
	}
	worker := regexp.MustCompile(`^local/[0-2]$`)
	if len(snap.Jobs) != jobs {
		t.Fatalf("%d per-job records, want %d", len(snap.Jobs), jobs)
	}
	for id, js := range snap.Jobs {
		if js.ID != id || js.Assignments != 1 || len(js.Workers) != 1 || !worker.MatchString(js.Workers[0]) {
			t.Fatalf("job stats %+v", js)
		}
	}

	started, done := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		seen := started
		switch ev.Name {
		case "job_started":
		case "job_done":
			seen = done
			if started[ev.Job] != ev.Worker {
				t.Fatalf("job_done for %s from %q, started by %q", ev.Job, ev.Worker, started[ev.Job])
			}
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
		if _, dup := seen[ev.Job]; dup || snap.Jobs[ev.Job].ID == "" || ev.Site != "local" || !worker.MatchString(ev.Worker) {
			t.Fatalf("event %+v: duplicate, unknown job, or not from a local/N worker", ev)
		}
		seen[ev.Job] = ev.Worker
	}
	if len(started) != jobs || len(done) != jobs {
		t.Fatalf("%d job_started and %d job_done events, want %d each", len(started), len(done), jobs)
	}

	// A second campaign on the same runner accumulates.
	if _, err := lr.Run(spec); err != nil {
		t.Fatal(err)
	}
	if snap := lr.StatsSnapshot(); snap.Stats.Jobs != 2*jobs || snap.Sites["local"].Completions != 2*jobs {
		t.Fatalf("after two campaigns: %+v", snap.Stats)
	}
}

// TestLocalRunnerErrors: a failing pull is wrapped with its combo and
// replica under the dist prefix, counted and reported as job_failed; a
// runner without Build refuses to run.
func TestLocalRunnerErrors(t *testing.T) {
	if _, err := (&LocalRunner{}).Run(testSpec()); err == nil || !strings.HasPrefix(err.Error(), "dist: ") {
		t.Fatalf("Run without Build: %v", err)
	}
	boom := errors.New("no such pore")
	var events bytes.Buffer
	lr := &LocalRunner{Workers: 2, Events: obs.NewEventLog(&events, 0),
		Build: func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			if c.KappaPN == 1000 {
				return nil, nil, boom
			}
			return localBuild(c, seed)
		}}
	_, err := lr.Run(testSpec())
	if !errors.Is(err, boom) || !regexp.MustCompile(`^dist: pull \S*1000\S* replica 0: no such pore$`).MatchString(err.Error()) {
		t.Fatalf("Run with a failing build: %v", err)
	}
	snap := lr.StatsSnapshot()
	if snap.Stats.Failures != 2 || snap.Sites["local"].Failures != 2 || snap.Sites["local"].Completions != 2 {
		t.Fatalf("after 2 of 4 pulls failed: stats %+v site %+v", snap.Stats, snap.Sites["local"])
	}
	if n := strings.Count(events.String(), `"event":"job_failed"`); n != 2 {
		t.Fatalf("%d job_failed events, want 2:\n%s", n, events.String())
	}
	if !strings.Contains(events.String(), `"error":"no such pore"`) {
		t.Fatalf("job_failed does not carry the error:\n%s", events.String())
	}
}
