package controlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/faultfs"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
	"spice/internal/wal"
)

// --- simulation fixtures (mirror internal/dist's test system) ---

func testBuild(system json.RawMessage, c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
	var sys struct {
		Beads int `json:"beads"`
	}
	if err := json.Unmarshal(system, &sys); err != nil {
		return nil, nil, err
	}
	spec := md.DefaultTranslocation(sys.Beads)
	spec.Seed = seed
	spec.DT = 0.02
	spec.Workers = 1
	ts, err := md.BuildTranslocation(spec)
	if err != nil {
		return nil, nil, err
	}
	return ts.Engine, ts.DNA[:1], nil
}

func localBuild(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
	return testBuild(json.RawMessage(`{"beads":3}`), c, seed)
}

func specA() campaign.Spec {
	return campaign.Spec{Kappas: []float64{100}, Velocities: []float64{800}, Replicas: 2, Distance: 3, Seed: 21}
}

func specB() campaign.Spec {
	return campaign.Spec{Kappas: []float64{300}, Velocities: []float64{1600}, Replicas: 2, Distance: 3, Seed: 77}
}

func localBaseline(t *testing.T, spec campaign.Spec) map[campaign.Combo][]*trace.WorkLog {
	t.Helper()
	lr := &campaign.LocalRunner{Build: localBuild, Workers: 1}
	logs, err := lr.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

func requireBitIdentical(t *testing.T, want, got map[campaign.Combo][]*trace.WorkLog) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("combo counts differ: want %d got %d", len(want), len(got))
	}
	for c, reps := range want {
		if len(got[c]) != len(reps) {
			t.Fatalf("combo %s: %d replicas, want %d", c, len(got[c]), len(reps))
		}
		for r := range reps {
			if len(got[c][r].Samples) != len(reps[r].Samples) {
				t.Fatalf("combo %s replica %d: sample counts differ", c, r)
			}
			for i, s := range reps[r].Samples {
				g := got[c][r].Samples[i]
				if g.Work != s.Work || g.Z != s.Z || g.Lambda != s.Lambda {
					t.Fatalf("combo %s replica %d sample %d: not bit-identical", c, r, i)
				}
			}
		}
	}
}

// newHarness builds a coordinator with its journal in cfg.StateDir (a
// fresh directory when unset) — the one -state directory of spiced
// -serve — n workers, and a control plane server over it. tune adjusts
// the coordinator's dist.Config.
func newHarness(t *testing.T, cfg Config, workers int, tune ...func(*dist.Config)) (*Server, *dist.Coordinator) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	co := newTestCoordinator(t, ln, cfg.StateDir, tune...)
	t.Cleanup(func() { _ = co.Close() })
	startTestWorkers(t, co, workers)
	cfg.Coordinator = co
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, co
}

// testDistConfig is this package's one dist.Config for tests:
// production Defaults() at test scale, minus rate hedging (a hedge fired
// by CI jitter would skew the per-campaign job counts the suites assert)
// and worker reconnects (a test worker whose coordinator closed must
// exit, not re-dial).
func testDistConfig() dist.Config {
	cfg := dist.Defaults()
	cfg.LeaseTTL = 2 * time.Second
	cfg.BeatInterval = 20 * time.Millisecond
	cfg.CheckpointEvery = 2
	cfg.HedgeFraction = 0
	cfg.Reconnect = false
	return cfg
}

// newTestCoordinator builds the 3-bead test coordinator on ln with its
// job journal under stateDir.
func newTestCoordinator(t *testing.T, ln net.Listener, stateDir string, tune ...func(*dist.Config)) *dist.Coordinator {
	t.Helper()
	cfg := testDistConfig()
	cfg.StateDir = stateDir
	for _, f := range tune {
		f(&cfg)
	}
	co, err := dist.NewCoordinator(ln, json.RawMessage(`{"beads":3}`), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func startTestWorkers(t *testing.T, co *dist.Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker("w", "", co.Listener.Addr().String(), testBuild, testDistConfig())
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}
}

func waitState(t *testing.T, s *Server, id string, want State) Campaign {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.State == want {
			return c
		}
		if c.State.terminal() && c.State != want {
			t.Fatalf("campaign %s reached %s (error %q), want %s", id, c.State, c.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s", id, want)
	return Campaign{}
}

// --- journals ---

// openQueue opens a queue journal under dir for writing, the way the
// servers that kept one did.
func openQueue(t *testing.T, fsys faultfs.FS, dir string) (*wal.Log[qrec, *qrec], *queueScan, wal.Replay) {
	t.Helper()
	j, qs, tail, err := wal.Open[qrec](queueConfig(fsys, dir), newQueueScan)
	if err != nil {
		t.Fatal(err)
	}
	return j, qs, tail
}

func TestQueueJournalLifecycleReplay(t *testing.T) {
	dir := t.TempDir()
	j, qs, tail := openQueue(t, nil, dir)
	if len(qs.order) != 0 || tail.TornBytes != 0 {
		t.Fatalf("fresh journal: replay=%d torn=%d", len(qs.order), tail.TornBytes)
	}
	spec, _ := json.Marshal(specA())
	now := time.Now().UTC()
	recs := []*qrec{
		{T: qSubmit, ID: "a", Tenant: "alice", Priority: 2, Spec: spec, At: now},
		{T: qSubmit, ID: "b", Tenant: "bob", Spec: spec, At: now},
		{T: qSubmit, ID: "c", Tenant: "bob", Spec: spec, At: now},
		{T: qSubmit, ID: "d", Tenant: "eve", Spec: spec, At: now},
		{T: qStart, ID: "a", At: now},
		{T: qDone, ID: "a", At: now},
		{T: qStart, ID: "b", At: now},
		{T: qFail, ID: "b", Err: "boom", At: now},
		{T: qCancel, ID: "c", At: now},
		{T: qStart, ID: "d", At: now},
	}
	for _, r := range recs {
		if err := j.Append(r, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, qs, tail = openQueue(t, nil, dir)
	defer j.Close()
	if tail.TornBytes != 0 {
		t.Fatalf("clean journal reported %d torn bytes", tail.TornBytes)
	}
	replay := qs.order
	want := map[string]State{"a": StateDone, "b": StateFailed, "c": StateCanceled, "d": StateRunning}
	if len(replay) != len(want) {
		t.Fatalf("replayed %d campaigns, want %d", len(replay), len(want))
	}
	for _, qr := range replay {
		if qr.state != want[qr.rec.ID] {
			t.Errorf("campaign %s replayed as %s, want %s", qr.rec.ID, qr.state, want[qr.rec.ID])
		}
	}
	if replay[1].rec.ID != "b" || replay[0].rec.Priority != 2 {
		t.Fatalf("replay order/fields wrong: %+v", replay)
	}
	for _, qr := range replay {
		if qr.rec.ID == "b" && qr.err != "boom" {
			t.Fatalf("fail error not replayed: %q", qr.err)
		}
	}
}

// --- server semantics ---

func TestSubmitQuotaDuplicateAndReadiness(t *testing.T) {
	s, _ := newHarness(t, Config{
		Quotas: map[string]Quota{"bob": {MaxQueued: 2}},
	}, 0)

	if err := s.Ready(); err == nil {
		t.Fatal("server ready before Start — journal replay gate missing")
	}
	s.Start()
	if err := s.Ready(); err != nil {
		t.Fatalf("server not ready after Start: %v", err)
	}

	if _, err := s.Submit(specA(), dist.CampaignTag{Tenant: "bob", Name: "1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(specA(), dist.CampaignTag{Tenant: "bob", Name: "1"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate submission: err=%v, want ErrDuplicate", err)
	}
	if _, err := s.Submit(specA(), dist.CampaignTag{Tenant: "bob", Name: "2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(specA(), dist.CampaignTag{Tenant: "bob", Name: "3"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submission: err=%v, want ErrQuotaExceeded", err)
	}
	// Unlimited default quota: another tenant is unaffected.
	if _, err := s.Submit(specA(), dist.CampaignTag{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.List("bob")); got != 2 {
		t.Fatalf("List(bob)=%d, want 2", got)
	}
}

// serveHTTP mounts s's API on a test server and returns its base URL.
func serveHTTP(t *testing.T, s *Server) string {
	t.Helper()
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// postJSON posts body to url and decodes the JSON reply into out.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// jnlRec is the part of a coordinator journal record these tests read.
type jnlRec struct {
	T string `json:"t"`
	wal.Stamp
	Camp string `json:"camp"`
	Job  string `json:"job"`
}

// journalRecords is a fold over the coordinator's journal.log that keeps
// the type of every campaign-level record (one naming no job) in log
// order: what was written, not what it replays to.
type journalRecords struct {
	order []string            // campaigns, in order of their first record
	types map[string][]string // per campaign
}

func (j *journalRecords) Apply(r *jnlRec) {
	if r.Camp == "" || r.Job != "" {
		return
	}
	if j.types[r.Camp] == nil {
		j.order = append(j.order, r.Camp)
	}
	j.types[r.Camp] = append(j.types[r.Camp], r.T)
}

func (j *journalRecords) Snapshot(func(*jnlRec)) {}

func scanJournalRecords(t *testing.T, dir string) *journalRecords {
	t.Helper()
	recs := &journalRecords{types: map[string][]string{}}
	if _, err := wal.Scan[jnlRec](wal.Config{Dir: dir, LogName: "journal.log", SnapName: "snapshot"}, recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSubmitRejectsUnrunnableSpec: a spec every pull of which would fail
// smd.Protocol.Validate on a worker — each failure a strike against that
// worker's site breaker — is refused with 400 before it is journaled.
func TestSubmitRejectsUnrunnableSpec(t *testing.T) {
	dir := t.TempDir()
	s, _ := newHarness(t, Config{StateDir: dir}, 0)
	s.Start()
	url := serveHTTP(t, s) + "/api/v1/campaigns"
	for _, tc := range []struct{ name, spec string }{
		{"no distance", `{"Kappas":[100],"Velocities":[50],"Replicas":1}`},
		{"negative distance", `{"Kappas":[100],"Velocities":[50],"Replicas":1,"Distance":-3}`},
		{"zero velocity", `{"Kappas":[100],"Velocities":[50,0],"Replicas":1,"Distance":3}`},
		{"negative velocity", `{"Kappas":[100],"Velocities":[-50],"Replicas":1,"Distance":3}`},
		{"zero kappa", `{"Kappas":[0],"Velocities":[50],"Replicas":1,"Distance":3}`},
		{"negative kappa", `{"Kappas":[100,-10],"Velocities":[50],"Replicas":1,"Distance":3}`},
		{"no kappas", `{"Velocities":[50],"Replicas":1,"Distance":3}`},
		{"no replicas", `{"Kappas":[100],"Velocities":[50],"Distance":3}`},
	} {
		var body map[string]string
		code := postJSON(t, url, `{"tenant":"t","spec":`+tc.spec+`}`, &body)
		if code != http.StatusBadRequest || !strings.HasPrefix(body["error"], ErrBadSpec.Error()) {
			t.Errorf("%s: %d %q, want 400 %q", tc.name, code, body["error"], ErrBadSpec)
		}
	}
	// JSON cannot carry an infinity; an in-process caller can.
	spec := specA()
	spec.Distance = math.Inf(1)
	if _, err := s.Submit(spec, dist.CampaignTag{Tenant: "t"}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("infinite distance: %v, want ErrBadSpec", err)
	}
	if recs := scanJournalRecords(t, dir); len(recs.order) != 0 {
		t.Fatalf("rejected specs reached journal.log: %v", recs.types)
	}
	if n := len(s.List("")); n != 0 {
		t.Fatalf("rejected specs reached the queue: %d campaigns", n)
	}
}

// TestSubmitBodyBounded: a valid spec whose tag is oversized (a 2 MiB
// name) is refused with 400 before anything is journaled — an accepted
// tag would be fsynced into every later replay.
func TestSubmitBodyBounded(t *testing.T) {
	dir := t.TempDir()
	s, _ := newHarness(t, Config{StateDir: dir}, 0)
	s.Start()
	body := `{"tenant":"t","name":"` + strings.Repeat("x", 2<<20) +
		`","spec":{"Kappas":[100],"Velocities":[800],"Replicas":1,"Distance":3}}`
	var reply map[string]string
	if code := postJSON(t, serveHTTP(t, s)+"/api/v1/campaigns", body, &reply); code != http.StatusBadRequest {
		t.Fatalf("2 MiB submission: %d %v, want 400", code, reply)
	}
	if recs := scanJournalRecords(t, dir); len(recs.order) != 0 {
		t.Fatalf("oversized submission reached journal.log: %v", recs.order)
	}
	if n := len(s.List("")); n != 0 {
		t.Fatalf("oversized submission reached the queue: %d campaigns", n)
	}
}

// TestSubmitReportsRealState: the 202 body carries the state the
// campaign is in, which on a started server is running — the state a GET
// right after reports too.
func TestSubmitReportsRealState(t *testing.T) {
	s, _ := newHarness(t, Config{}, 0)
	s.Start()
	base := serveHTTP(t, s)
	body, err := json.Marshal(SubmitRequest{Tenant: "alice", Spec: specA()})
	if err != nil {
		t.Fatal(err)
	}
	var acc SubmitResponse
	if code := postJSON(t, base+"/api/v1/campaigns", string(body), &acc); code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	c, err := (&Client{Base: base}).Get(context.Background(), acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if acc.State != c.State || c.State != StateRunning {
		t.Fatalf("202 said %q, GET says %q, want both running", acc.State, c.State)
	}
}

// TestClientKeepsServerSentinels: the client reconstructs the server's
// sentinels, so errors.Is works on either side of the HTTP API — an
// unrunnable spec (400), a duplicate submission and an early Result (two
// sentinels behind one 409) — and a tenant name is a query value, not
// query syntax.
func TestClientKeepsServerSentinels(t *testing.T) {
	s, _ := newHarness(t, Config{}, 0)
	s.Start()
	cl := &Client{Base: serveHTTP(t, s)}
	ctx := context.Background()
	bad := specA()
	bad.Distance = 0
	if _, err := cl.Submit(ctx, bad, dist.CampaignTag{Tenant: "t"}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unrunnable spec: %v, want ErrBadSpec", err)
	}
	tags := []dist.CampaignTag{{Tenant: "a"}, {Tenant: "a&b"}, {Tenant: "a b=c"}}
	var id string
	for _, tag := range tags {
		var err error
		if id, err = cl.Submit(ctx, specA(), tag); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Submit(ctx, specA(), tags[0]); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate submission: %v, want ErrDuplicate", err)
	}
	if _, err := cl.Result(ctx, id); !errors.Is(err, ErrNotDone) {
		t.Errorf("early Result: %v, want ErrNotDone", err)
	}
	for _, tag := range tags[1:] {
		list, err := cl.List(ctx, tag.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 1 || list[0].Tenant != tag.Tenant {
			t.Errorf("List(%q) = %+v, want that tenant's one campaign", tag.Tenant, list)
		}
	}
}

// TestSubmitGoesStraightToCoordinator: on a started server Submit installs
// every campaign on the coordinator whatever its priority — priority and
// fair share are decided once, on the lease path — and the one durable
// record of it is the journal's campaign record: there is no queue.log,
// and a drained campaign has no campaign-level record besides it.
func TestSubmitGoesStraightToCoordinator(t *testing.T) {
	dir := t.TempDir()
	s, co := newHarness(t, Config{StateDir: dir}, 0)
	s.Start()
	var ids []string
	for i, sub := range []struct {
		spec campaign.Spec
		tag  dist.CampaignTag
	}{
		{specA(), dist.CampaignTag{Tenant: "alice"}},
		{specB(), dist.CampaignTag{Tenant: "bob", Priority: 1}},
		{specA(), dist.CampaignTag{Tenant: "bob", Priority: 2}},
	} {
		id, err := s.Submit(sub.spec, sub.tag)
		if err != nil {
			t.Fatal(err)
		}
		if c, _ := s.Get(id); c.State != StateRunning {
			t.Fatalf("campaign %d is %s when Submit returns, want running", i, c.State)
		}
		ids = append(ids, id)
	}
	var views []dist.CampaignView
	for deadline := time.Now().Add(5 * time.Second); len(views) < len(ids); views = co.Campaigns() {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator holds %d of %d submitted campaigns", len(views), len(ids))
		}
		time.Sleep(time.Millisecond)
	}
	order := s.leaseScheduler().Offer(time.Now(), views)
	for i, want := range []int{2, 1, 0} {
		if i >= len(order) || views[order[i]].Priority != want {
			t.Fatalf("lease offer %v over %+v: want priorities 2, 1, 0", order, views)
		}
	}
	recs := scanJournalRecords(t, dir)
	for _, id := range ids {
		if got := strings.Join(recs.types[id], " "); got != "campaign" {
			t.Fatalf("campaign %s: journal.log holds %q while running, want only its campaign record", id, got)
		}
	}
	startTestWorkers(t, co, 2)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	recs = scanJournalRecords(t, dir)
	for _, id := range ids {
		if got := strings.Join(recs.types[id], " "); got != "campaign" {
			t.Fatalf("campaign %s: journal.log holds %q once drained, want only its campaign record", id, got)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("queue.log written beside the journal: %v", err)
	}
}

// TestLeaseSchedulerFairShareUnderDefaultAging: with the default aging
// rate a campaign installed a second before another of equal priority
// must not outrank it on that second alone — they share a priority band,
// and within a band the tenant with less work leased (or charged less so
// far) leads the offer. This is what lets a short probe take the next
// free worker instead of waiting out a bulk tenant's whole pending list.
func TestLeaseSchedulerFairShareUnderDefaultAging(t *testing.T) {
	s, _ := newHarness(t, Config{Aging: 1}, 0)
	now := time.Now()
	views := []dist.CampaignView{
		{Key: "bulk", Tenant: "bulk", Seq: 0, Submitted: now.Add(-time.Second), Pending: 10, Leased: 2, LeasedNs: 0.9, Total: 12},
		{Key: "probe", Tenant: "probe", Seq: 1, Submitted: now, Pending: 4, Total: 4},
	}
	if got := s.leaseScheduler().Offer(now, views); len(got) != 2 || got[0] != 1 {
		t.Fatalf("offer = %v: the older campaign leads although its tenant holds all the leased work", got)
	}
	// No live load on either side: the ledger decides the same way.
	views[0].Leased, views[0].LeasedNs, views[0].Pending = 0, 0, 12
	s.mu.Lock()
	s.charge("bulk", 4.5)
	s.mu.Unlock()
	if got := s.leaseScheduler().Offer(now, views); len(got) != 2 || got[0] != 1 {
		t.Fatalf("offer = %v: the tenant charged for earlier campaigns still leads", got)
	}
	// An hour's wait is a whole band: then aging does outrank usage.
	views[0].Submitted = now.Add(-time.Hour)
	if got := s.leaseScheduler().Offer(now, views); len(got) != 2 || got[0] != 0 {
		t.Fatalf("offer = %v: an hour of waiting did not lift the older campaign a band", got)
	}
}

// TestLeaseSchedulerStopsAtQuotaBlocked pins the conservative walk: a
// campaign whose tenant is at MaxRunning ends the offer, so campaigns
// ranked behind it get no lease this round even when their own tenants
// have room, while campaigns ranked ahead of it are still offered.
func TestLeaseSchedulerStopsAtQuotaBlocked(t *testing.T) {
	s, _ := newHarness(t, Config{Quotas: map[string]Quota{"alice": {MaxRunning: 1}}}, 0)
	now := time.Now()
	views := []dist.CampaignView{
		{Key: "carol", Tenant: "carol", Priority: 1, Seq: 0, Submitted: now, Pending: 4, Total: 4},
		{Key: "alice", Tenant: "alice", Priority: 2, Seq: 1, Submitted: now, Pending: 3, Leased: 1, Total: 4},
		{Key: "bob", Tenant: "bob", Priority: 3, Seq: 2, Submitted: now, Pending: 4, Total: 4},
	}
	if got := s.leaseScheduler().Offer(now, views); len(got) != 1 || got[0] != 2 {
		t.Fatalf("offer = %v, want [2]: bob ahead of the blocked alice, carol behind her cut off", got)
	}
	// Below her limit alice is offered in rank order again, and carol
	// behind her.
	views[1].Leased, views[1].Pending = 0, 4
	if got := s.leaseScheduler().Offer(now, views); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("offer = %v, want [2 1 0]", got)
	}
}

// TestLeaseSchedulerQuotaCountsTenantLeases: MaxRunning caps the
// tenant's leases, not each campaign's — a tenant holding its one lease
// through one campaign is offered nothing from its other campaign.
func TestLeaseSchedulerQuotaCountsTenantLeases(t *testing.T) {
	s, _ := newHarness(t, Config{Quotas: map[string]Quota{"alice": {MaxRunning: 1}}}, 0)
	now := time.Now()
	views := []dist.CampaignView{
		{Key: "alice-2", Tenant: "alice", Seq: 0, Submitted: now, Pending: 4, Total: 4},
		{Key: "alice-1", Tenant: "alice", Seq: 1, Submitted: now, Pending: 3, Leased: 1, LeasedNs: 0.1, Total: 4},
		{Key: "bob", Tenant: "bob", Seq: 2, Submitted: now, Pending: 4, Total: 4},
	}
	if got := s.leaseScheduler().Offer(now, views); len(got) != 1 || got[0] != 2 {
		t.Fatalf("offer = %v, want [2]: alice is at MaxRunning through alice-1, so alice-2 gets no lease either", got)
	}
}

// replayedServer writes each tenant's spec as a finished campaign into
// an older server's queue.log and opens a server over it, so the
// fair-share ledger is charged the way a restart charges it.
func replayedServer(t *testing.T, cfg Config, done map[string]campaign.Spec) *Server {
	t.Helper()
	dir := t.TempDir()
	j, _, _ := openQueue(t, nil, dir)
	now := time.Now().UTC()
	for tenant, spec := range done {
		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*qrec{{T: qSubmit, ID: tenant, Tenant: tenant, Spec: specJSON, At: now}, {T: qDone, ID: tenant, At: now}} {
			if err := j.Append(r, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.StateDir = dir
	s, _ := newHarness(t, cfg, 0)
	return s
}

// usageByTenant reads the ledger the way /api/v1/stats serves it.
func usageByTenant(s *Server) map[string]float64 {
	usage := make(map[string]float64)
	for _, q := range s.Stats() {
		usage[q.Tenant] = q.Usage
	}
	return usage
}

// TestFairShareChargesPullWork: the ledger charges the simulated time of
// a campaign's pulls, not its job count. A tenant that finished 12
// pulls of 0.1 ns has used less than one that finished 4 of 0.8 ns and
// leads the next offer, and a spec whose faster velocities get more
// samples (EqualSamples false) is charged its whole task set.
func TestFairShareChargesPullWork(t *testing.T) {
	specs := map[string]campaign.Spec{
		"probe":  {Kappas: []float64{100}, Velocities: []float64{100}, Replicas: 12, EqualSamples: true, Distance: 10, Seed: 1},
		"bulk":   {Kappas: []float64{100}, Velocities: []float64{12.5}, Replicas: 4, EqualSamples: true, Distance: 10, Seed: 2},
		"scaled": {Kappas: []float64{10, 100}, Velocities: []float64{12.5, 25, 50, 100}, Replicas: 1, Distance: 10, Seed: 3},
	}
	s := replayedServer(t, Config{Aging: 1}, specs)
	usage := usageByTenant(s)
	for tenant, spec := range specs {
		want := 0.0
		for _, task := range spec.Tasks() {
			want += spec.PullNs(task.Combo)
		}
		if math.Abs(usage[tenant]-want) > 1e-9 {
			t.Errorf("tenant %s charged %g, want %g: the work of all %d pulls", tenant, usage[tenant], want, len(spec.Tasks()))
		}
	}
	now := time.Now()
	views := []dist.CampaignView{
		{Key: "bulk", Tenant: "bulk", Seq: 0, Submitted: now.Add(-time.Second), Pending: 4, Total: 4},
		{Key: "probe", Tenant: "probe", Seq: 1, Submitted: now, Pending: 12, Total: 12},
	}
	if got := s.leaseScheduler().Offer(now, views); len(got) != 2 || got[0] != 1 {
		t.Fatalf("offer = %v: the tenant with 1.2 ns of finished pulls ranks behind the one with 3.2 ns", got)
	}
}

// TestLiveChargeMatchesSimulator: the served ledger and the simulator's
// batch queue charge one quantity — a finished campaign's usage times
// the cost model's CPU-hours per ns is the CPU-hours of its grid jobs.
func TestLiveChargeMatchesSimulator(t *testing.T) {
	scaled := campaign.PaperSpec()
	scaled.EqualSamples = false
	specs := map[string]campaign.Spec{"paper": campaign.PaperSpec(), "scaled": scaled}
	s := replayedServer(t, Config{}, specs)
	usage := usageByTenant(s)
	cm := campaign.PaperCostModel()
	for tenant, spec := range specs {
		want := 0.0
		for _, j := range spec.Jobs(cm) {
			want += j.CPUHours()
		}
		if got := usage[tenant] * cm.CPUHoursPerNs; math.Abs(got-want) > 1e-9*want {
			t.Errorf("tenant %s: live charge %g CPU-h, simulator %g CPU-h", tenant, got, want)
		}
	}
}

// TestTenantUsageGauge: /metrics exports the fair-share ledger per
// tenant, equal to the usage /api/v1/stats serves.
func TestTenantUsageGauge(t *testing.T) {
	reg := obs.NewRegistry()
	s := replayedServer(t, Config{Metrics: reg}, map[string]campaign.Spec{"alice": specA(), "bob": specB()})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	rows := s.Stats()
	if len(rows) != 2 {
		t.Fatalf("stats rows = %+v, want alice and bob", rows)
	}
	for _, q := range rows {
		prefix := fmt.Sprintf("spice_cp_tenant_usage{tenant=%q} ", q.Tenant)
		var got string
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				got = v
			}
		}
		if v, err := strconv.ParseFloat(got, 64); err != nil || v != q.Usage || v <= 0 {
			t.Errorf("tenant %s: scraped usage %q, stats %g", q.Tenant, got, q.Usage)
		}
	}
}

func TestCancelQueuedCampaign(t *testing.T) {
	// A campaign is queued only between a replay and Start: accept two
	// with no workers (running never finishes), then restart.
	dir := t.TempDir()
	s1, co1 := newHarness(t, Config{StateDir: dir}, 0)
	idA, err := s1.Submit(specA(), dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s1.Submit(specB(), dist.CampaignTag{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := newHarness(t, Config{StateDir: dir}, 0)
	if c, _ := s.Get(idB); c.State != StateQueued {
		t.Fatalf("campaign B is %s before Start, want queued", c.State)
	}
	if st, err := s.Cancel(idB); err != nil || st != StateCanceled {
		t.Fatalf("cancel queued: state=%s err=%v", st, err)
	}
	s.Start()
	if c, _ := s.Get(idA); c.State != StateRunning {
		t.Fatalf("campaign A is %s after Start, want running", c.State)
	}
	if c, _ := s.Get(idB); c.State != StateCanceled {
		t.Fatalf("Start revived canceled campaign B: %s", c.State)
	}
	if _, err := s.Result(idB); !errors.Is(err, ErrNotDone) {
		t.Fatalf("result of canceled campaign: %v, want ErrNotDone", err)
	}
	if st, err := s.Cancel(idA); err != nil || st != StateRunning {
		t.Fatalf("cancel running: state=%s err=%v", st, err)
	}
	waitState(t, s, idA, StateCanceled)
	if _, err := s.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
}

// TestCancelRightAfterSubmit: a Cancel issued right after Submit must
// not be lost — with no workers, a lost one would leave its campaign
// running forever. Submit installs the campaign before it returns, so
// the cancel always finds it on the coordinator.
func TestCancelRightAfterSubmit(t *testing.T) {
	s, _ := newHarness(t, Config{}, 0)
	s.Start()
	ids := make([]string, 50)
	for i := range ids {
		id, err := s.Submit(specA(), dist.CampaignTag{Tenant: "t", Name: strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		waitState(t, s, id, StateCanceled)
	}
}

// TestTwoTenantsOverHTTPBitIdentical is the package smoke test: two
// tenants submit over the HTTP API, both campaigns share the fleet under
// the lease path's quotas, and both merged results must be bit-identical
// to single-process LocalRunner baselines.
func TestTwoTenantsOverHTTPBitIdentical(t *testing.T) {
	wantA, wantB := localBaseline(t, specA()), localBaseline(t, specB())

	// No workers yet: submissions and the quota rejection are asserted
	// while nothing can complete, so the quota state is deterministic.
	s, co := newHarness(t, Config{
		Quotas: map[string]Quota{"alice": {MaxQueued: 1}, "bob": {MaxQueued: 1, MaxRunning: 1}},
	}, 0)
	s.Start()
	cl := &Client{Base: serveHTTP(t, s)}
	ctx := context.Background()

	idA, err := cl.Submit(ctx, specA(), dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := cl.Submit(ctx, specB(), dist.CampaignTag{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	// Quota: alice is at MaxQueued=1 while her campaign is in flight.
	if _, err := cl.Submit(ctx, specB(), dist.CampaignTag{Tenant: "alice", Name: "x"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota HTTP submit: %v, want ErrQuotaExceeded", err)
	}

	startTestWorkers(t, co, 2)
	for _, id := range []string{idA, idB} {
		if c, err := cl.WaitDone(ctx, id, 25*time.Millisecond); err != nil || c.State != StateDone {
			t.Fatalf("campaign %s: state=%s err=%v", id, c.State, err)
		}
	}
	gotA, err := cl.Result(ctx, idA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := cl.Result(ctx, idB)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, wantA, gotA)
	requireBitIdentical(t, wantB, gotB)

	list, err := cl.List(ctx, "")
	if err != nil || len(list) != 2 {
		t.Fatalf("List: n=%d err=%v", len(list), err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queue) != 2 || st.Queue[0].Tenant != "alice" || st.Queue[0].Done != 1 ||
		st.Queue[1].Tenant != "bob" || st.Queue[1].Done != 1 {
		t.Fatalf("stats queue rows wrong: %+v", st.Queue)
	}
	if st.Queue[0].Usage <= 0 {
		t.Fatalf("fair-share usage not charged: %+v", st.Queue[0])
	}
	if st.Dist.Stats.Jobs == 0 {
		t.Fatalf("dist snapshot missing from stats response: %+v", st.Dist.Stats)
	}
}

// TestRestartReplaysAcceptedCampaigns closes a control plane and its
// coordinator with campaigns accepted but unfinished (no workers) and
// reopens both on the same state dir — every accepted campaign must come
// back queued and then run to completion with bit-identical results.
func TestRestartReplaysAcceptedCampaigns(t *testing.T) {
	stateDir := t.TempDir()
	wantA, wantB := localBaseline(t, specA()), localBaseline(t, specB())

	s1, co1 := newHarness(t, Config{StateDir: stateDir}, 0)
	// No workers: both campaigns are accepted but make no progress, the
	// pure replay case.
	idA, err := s1.Submit(specA(), dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s1.Submit(specB(), dist.CampaignTag{Tenant: "bob", Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := newHarness(t, Config{StateDir: stateDir}, 2)
	for _, want := range []struct {
		id     string
		tenant string
		prio   int
	}{{idA, "alice", 0}, {idB, "bob", 1}} {
		c, err := s2.Get(want.id)
		if err != nil {
			t.Fatalf("campaign %s lost across restart: %v", want.id, err)
		}
		if c.State != StateQueued || c.Tenant != want.tenant || c.Priority != want.prio {
			t.Fatalf("campaign %s replayed wrong: %+v", want.id, c)
		}
	}
	s2.Start()
	waitState(t, s2, idA, StateDone)
	waitState(t, s2, idB, StateDone)
	gotA, err := s2.Result(idA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := s2.Result(idB)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, wantA, gotA)
	requireBitIdentical(t, wantB, gotB)
}

// TestResultRecoveredAfterRestart finishes a campaign, restarts the
// control plane (results not in memory), and fetches the result again —
// it must be recovered through the coordinator's journal replay without
// re-executing work, and stay bit-identical. Many callers asking at once
// must share the one recovery: the replay can be consumed only once, so
// a second re-run would collide with the first ("already running") or,
// started after it, install the campaign afresh and — with no workers —
// never finish.
func TestResultRecoveredAfterRestart(t *testing.T) {
	stateDir := t.TempDir()
	coStateDir := t.TempDir()
	want := localBaseline(t, specA())

	mk := func(workers int) (*Server, func() error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		co := newTestCoordinator(t, ln, coStateDir)
		startTestWorkers(t, co, workers)
		s, err := New(Config{Coordinator: co, StateDir: stateDir})
		if err != nil {
			t.Fatal(err)
		}
		return s, func() error { s.Close(); return co.Close() }
	}

	s1, close1 := mk(2)
	s1.Start()
	id, err := s1.Submit(specA(), dist.CampaignTag{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, id, StateDone)
	if err := close1(); err != nil {
		t.Fatal(err)
	}

	// Second process: campaign replays as done, result not in memory.
	// Zero workers proves recovery replays the dist journal instead of
	// re-running simulations.
	s2, close2 := mk(0)
	defer close2()
	s2.Start()
	c, err := s2.Get(id)
	if err != nil || c.State != StateDone {
		t.Fatalf("done campaign after restart: state=%s err=%v", c.State, err)
	}
	type result struct {
		logs map[campaign.Combo][]*trace.WorkLog
		err  error
	}
	const callers = 16
	results := make(chan result, callers)
	for i := 0; i < callers; i++ {
		go func() {
			logs, err := s2.Result(id)
			results <- result{logs, err}
		}()
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("concurrent Result: %v", r.err)
			}
			requireBitIdentical(t, want, r.logs)
		case <-timeout:
			t.Fatalf("%d of %d concurrent Result calls never returned", callers-i, callers)
		}
	}
}

// TestFlattenRoundTrip checks the wire form of results is ordered and
// invertible.
func TestFlattenRoundTrip(t *testing.T) {
	m := map[campaign.Combo][]*trace.WorkLog{
		{KappaPN: 300, VAns: 800}:  {{Kappa: 300, Velocity: 800}},
		{KappaPN: 100, VAns: 1600}: {{Kappa: 100, Velocity: 1600}},
		{KappaPN: 100, VAns: 800}:  {{Kappa: 100, Velocity: 800}},
	}
	flat := FlattenResult(m)
	if flat[0].Kappa != 100 || flat[0].Velocity != 800 || flat[2].Kappa != 300 {
		t.Fatalf("flatten not ordered: %+v", flat)
	}
	back := UnflattenResult(flat)
	if len(back) != len(m) {
		t.Fatalf("round trip lost combos: %d vs %d", len(back), len(m))
	}
	for c, logs := range m {
		if back[c][0].Kappa != logs[0].Kappa {
			t.Fatalf("combo %v mismatched after round trip", c)
		}
	}
}
