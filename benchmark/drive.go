package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/dist"
	"spice/internal/md"
)

// statusPoll is how often a client asks whether its campaign is done.
const statusPoll = 10 * time.Millisecond

// httpTally times and sizes the client's HTTP exchanges by kind, from
// the request leaving to the last body byte read. Only traced runs
// install it.
type httpTally struct {
	next http.RoundTripper

	mu          sync.Mutex
	statusNs    []float64
	resultBytes []float64
}

func (t *httpTally) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet {
		return resp, err
	}
	kind := "status"
	switch {
	case strings.HasSuffix(req.URL.Path, "/result"):
		kind = "result"
	case strings.HasSuffix(req.URL.Path, "/stats"), strings.HasSuffix(req.URL.Path, "/metrics"):
		return resp, nil
	}
	resp.Body = &tallyBody{ReadCloser: resp.Body, done: func(n int64) {
		t.mu.Lock()
		defer t.mu.Unlock()
		if kind == "status" {
			t.statusNs = append(t.statusNs, float64(time.Since(start)))
		} else {
			t.resultBytes = append(t.resultBytes, float64(n))
		}
	}}
	return resp, nil
}

type tallyBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
}

func (b *tallyBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tallyBody) Close() error {
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return b.ReadCloser.Close()
}

// newClient returns a control-plane client holding one connection: the
// benchmark is a closed loop of at most two such clients.
func newClient(addr string, tally *httpTally) *controlplane.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if tally != nil {
		tally.next = rt
		rt = tally
	}
	return &controlplane.Client{Base: addr, HTTP: &http.Client{Transport: rt}, RetryMax: 3}
}

// served is one campaign driven through the control plane.
type served struct {
	ID      string
	Pulls   int
	Latency time.Duration // Submit sent → PMF computed
	Err     error         // refused, not done, fetch failed or PMF mismatch
	State   controlplane.State
	// JobsDone is how many pulls the fleet finished; equals Pulls for a
	// done campaign and is what a cancelled one got through.
	JobsDone int
	// ServeCPU and WorkerCPU are the CPU seconds the fleet's processes
	// used while this campaign was driven (single-tenant windows only).
	ServeCPU, WorkerCPU float64

	submitAt, submitted, doneAt, fetched, end time.Time
	waitSpan                                  int // the client's wait span, parent of the fleet-side spans
}

// localRun is the plain baseline: the same spec through
// campaign.LocalRunner in this process, reduced to the same PMF bytes.
func localRun(spec campaign.Spec) (pmf []byte, took time.Duration, err error) {
	lr := &campaign.LocalRunner{
		Workers: fleetWorkers,
		Build: func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			return systemUnderTest.Build(seed)
		},
	}
	start := time.Now()
	res, err := lr.Run(spec)
	if err != nil {
		return nil, 0, fmt.Errorf("LocalRunner: %w", err)
	}
	pmf, err = pmfBytes(spec, res)
	return pmf, time.Since(start), err
}

// runServed submits spec under tag, waits for it, fetches the merged
// work logs and computes the PMF, stopping the clock there. want is the
// LocalRunner PMF the result must equal bit for bit. When ctx ends
// first the campaign is cancelled on the server and reported with the
// pulls it got through. rec, when non-nil, receives the client-side
// spans.
func runServed(ctx context.Context, c *controlplane.Client, spec campaign.Spec, tag dist.CampaignTag, want []byte, rec *recorder) served {
	s := served{Pulls: pulls(spec)}
	s.submitAt = time.Now()
	id, err := c.Submit(ctx, spec, tag)
	s.submitted = time.Now()
	s.ID = id
	if err != nil {
		if ctx.Err() != nil {
			// The window closed while the request was in flight; whether
			// the server saw it is unknown, and the fleet is about to be
			// torn down either way.
			s.State = controlplane.StateCanceled
			return s
		}
		s.Err = fmt.Errorf("submit %s: %w", tag.Name, err)
		return s
	}
	camp, err := c.WaitDone(ctx, id, statusPoll)
	s.doneAt = time.Now()
	s.State, s.JobsDone = camp.State, camp.JobsDone
	if ctx.Err() != nil {
		// The window closed on an in-flight campaign: withdraw it. The
		// background context keeps the DELETE from being cancelled too.
		if cerr := c.Cancel(context.Background(), id); cerr != nil {
			s.Err = fmt.Errorf("cancel %s: %w", tag.Name, cerr)
		}
		s.State = controlplane.StateCanceled
		return s
	}
	if err != nil {
		s.Err = fmt.Errorf("wait %s: %w", tag.Name, err)
		return s
	}
	if camp.State != controlplane.StateDone {
		s.Err = fmt.Errorf("campaign %s ended %s: %s", tag.Name, camp.State, camp.Error)
		return s
	}
	res, err := c.Result(ctx, id)
	s.fetched = time.Now()
	if err != nil {
		s.Err = fmt.Errorf("result %s: %w", tag.Name, err)
		return s
	}
	got, err := pmfBytes(spec, res)
	s.end = time.Now()
	s.Latency = s.end.Sub(s.submitAt)
	if err != nil {
		s.Err = fmt.Errorf("pmf %s: %w", tag.Name, err)
	} else if !bytes.Equal(got, want) {
		s.Err = fmt.Errorf("campaign %s: served PMF differs from LocalRunner PMF", tag.Name)
	}
	if rec != nil {
		root := rec.add(id, "campaign", 0, s.submitAt, s.end)
		rec.add(id, "controlplane.submit", root, s.submitAt, s.submitted)
		s.waitSpan = rec.add(id, "controlplane.wait", root, s.submitted, s.doneAt)
		rec.add(id, "controlplane.result_fetch", root, s.doneAt, s.fetched)
		rec.add(id, "jarzynski.pmf", root, s.fetched, s.end)
	}
	return s
}

// distDelta is what the coordinator counted between two stats reads.
func distDelta(before, after dist.Stats) dist.Stats {
	d := after
	d.Jobs -= before.Jobs
	d.Assignments -= before.Assignments
	d.Retries -= before.Retries
	d.LeaseExpiries -= before.LeaseExpiries
	d.Checkpoints -= before.Checkpoints
	d.BytesIn -= before.BytesIn
	d.BytesOut -= before.BytesOut
	d.SpeculationsLaunched -= before.SpeculationsLaunched
	d.RequestsShed -= before.RequestsShed
	d.DeltasFolded -= before.DeltasFolded
	d.DeltaBaseMisses -= before.DeltaBaseMisses
	d.WorkPolls -= before.WorkPolls
	return d
}

// disturbed reports whether the fleet did something a healthy loopback
// fleet never does while d was counted.
func disturbed(d dist.Stats) bool {
	return d.SpeculationsLaunched != 0 || d.LeaseExpiries != 0 || d.RequestsShed != 0
}

func fleetStats(ctx context.Context, c *controlplane.Client) (dist.Stats, error) {
	r, err := c.Stats(ctx)
	return r.Dist.Stats, err
}

// warmUp runs one small campaign, which starts the coordinator's accept
// loop, and waits until every worker is connected, so measurement
// begins on a fleet that is idle-polling rather than still dialling.
func warmUp(ctx context.Context, c *controlplane.Client, p *plan) error {
	s := runServed(ctx, c, p.warmSpec, dist.CampaignTag{Tenant: "warmup", Name: "warmup"}, p.warmWant, nil)
	if s.Err != nil {
		return fmt.Errorf("warm-up campaign: %w", s.Err)
	}
	deadline := time.Now().Add(readyDeadline)
	for {
		st, err := fleetStats(ctx, c)
		if err != nil {
			return fmt.Errorf("warm-up: stats: %w", err)
		}
		if st.ConnectedWorkers == fleetWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d workers connected after %v", st.ConnectedWorkers, fleetWorkers, readyDeadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// plan is one workload made concrete for one seed: the specs the fleet
// will see and the LocalRunner PMFs their results must equal. The specs
// are the same every round (campaign names differ), so each round does
// identical work and one oracle covers them all.
type plan struct {
	w        workload
	seed     uint64
	spec     campaign.Spec
	want     []byte
	bulkSpec campaign.Spec
	bulkWant []byte
	warmSpec campaign.Spec
	warmWant []byte
}

func newPlan(w workload, seed uint64) (*plan, error) {
	p := &plan{w: w, seed: seed, spec: seeded(w.spec, seed), warmSpec: seeded(warmupSpec, seed)}
	var err error
	if p.want, _, err = localRun(p.spec); err != nil {
		return nil, err
	}
	if p.warmWant, _, err = localRun(p.warmSpec); err != nil {
		return nil, err
	}
	if w.bulk != nil {
		p.bulkSpec = seeded(*w.bulk, seed)
		if p.bulkWant, _, err = localRun(p.bulkSpec); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// window says how long to drive a fleet and what to record meanwhile.
type window struct {
	length    time.Duration
	minRounds int  // measured campaigns to run even if length has passed
	baseline  bool // interleave LocalRunner timing samples
	rec       *recorder
	tally     *httpTally
	// cpu, when set, is the real fleet whose processes' CPU time is read
	// around every stretch in which the fleet is being driven (not the
	// interleaved baselines), so CPU is attributed to exactly those
	// stretches.
	cpu *procFleet
}

// metered runs active and returns the CPU the fleet used meanwhile.
func (w window) metered(active func()) (serve, workers float64, err error) {
	if w.cpu == nil {
		active()
		return 0, 0, nil
	}
	s0, w0, err := w.cpu.cpu()
	if err != nil {
		return 0, 0, err
	}
	active()
	s1, w1, err := w.cpu.cpu()
	return s1 - s0, w1 - w0, err
}

// roundsResult is everything one measured window produced.
type roundsResult struct {
	Served    []served        // measured campaigns, in order
	Bulk      []served        // second-tenant campaigns (multitenant only)
	Local     []time.Duration // LocalRunner timing samples
	Window    time.Duration   // wall time the fleet was being driven
	ServeCPU  float64         // CPU seconds of the serve process over Window
	WorkerCPU float64         // CPU seconds of the workers over Window
	Dist      dist.Stats      // coordinator counters over the window
	Submitted int             // pulls in every campaign the server accepted
	LostAck   bool            // a submit was cut off by the window closing
	Disturbed int             // campaigns rerun because the fleet misbehaved
	Unsettled int             // reruns that were disturbed again
}

// driveRounds runs the closed loop for one workload until the window has
// passed and at least minRounds campaigns were measured. Single-tenant
// workloads alternate LocalRunner and served runs of the identical spec,
// swapping the order every round so drift in the machine cancels out of
// their ratio.
func driveRounds(ctx context.Context, addr string, p *plan, win window) (roundsResult, error) {
	var out roundsResult
	c := newClient(addr, win.tally)
	before, err := fleetStats(ctx, c)
	if err != nil {
		return out, err
	}
	if p.w.bulk != nil {
		err = driveTenants(ctx, addr, c, p, win, &out)
	} else {
		local := func() error {
			if !win.baseline {
				return nil
			}
			_, took, err := localRun(p.spec)
			out.Local = append(out.Local, took)
			return err
		}
		start := time.Now()
		for round := 0; err == nil && (time.Since(start) < win.length || round < win.minRounds); round++ {
			if round%2 == 0 {
				err = local()
			}
			if err == nil {
				err = driveOne(ctx, c, p, fmt.Sprintf("%s-%d-r%d", p.w.name, p.seed, round), win, &out)
			}
			if err == nil && round%2 == 1 {
				err = local()
			}
		}
	}
	if err != nil {
		return out, err
	}
	after, err := fleetStats(ctx, c)
	if err != nil {
		return out, err
	}
	out.Dist = distDelta(before, after)
	return out, nil
}

// driveOne measures one campaign, rerunning it once under a new name if
// the fleet was disturbed while it ran.
func driveOne(ctx context.Context, c *controlplane.Client, p *plan, name string, win window, out *roundsResult) error {
	for try := 0; ; try++ {
		before, err := fleetStats(ctx, c)
		if err != nil {
			return err
		}
		var s served
		t0 := time.Now()
		s.ServeCPU, s.WorkerCPU, err = win.metered(func() {
			s = runServed(ctx, c, p.spec, dist.CampaignTag{Tenant: "bench", Name: fmt.Sprintf("%s-t%d", name, try)}, p.want, win.rec)
		})
		took := time.Since(t0)
		if err != nil {
			return err
		}
		after, err := fleetStats(ctx, c)
		if err != nil {
			return err
		}
		if s.ID != "" {
			out.Submitted += s.Pulls
		}
		if disturbed(distDelta(before, after)) {
			if try == 0 {
				out.Disturbed++
				continue
			}
			out.Unsettled++
		}
		out.Window += took
		out.ServeCPU += s.ServeCPU
		out.WorkerCPU += s.WorkerCPU
		out.Served = append(out.Served, s)
		return nil
	}
}

// driveTenants is the two-tenant window: this goroutine measures probe
// campaigns one after another while a second client resubmits the bulk
// campaign back to back; when the window closes the in-flight bulk
// campaign is cancelled.
func driveTenants(ctx context.Context, addr string, c *controlplane.Client, p *plan, win window, out *roundsResult) error {
	// The probe's own baseline is sampled before the fleet is loaded:
	// both share this machine's CPUs.
	for i := 0; win.baseline && i < 11; i++ {
		_, took, err := localRun(p.spec)
		if err != nil {
			return err
		}
		out.Local = append(out.Local, took)
	}
	var err error
	out.ServeCPU, out.WorkerCPU, err = win.metered(func() {
		bulkCtx, stopBulk := context.WithCancel(ctx)
		defer stopBulk()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc := newClient(addr, nil)
			for i := 0; bulkCtx.Err() == nil; i++ {
				tag := dist.CampaignTag{Tenant: "bulk", Name: fmt.Sprintf("bulk-%d-%d", p.seed, i)}
				out.Bulk = append(out.Bulk, runServed(bulkCtx, bc, p.bulkSpec, tag, p.bulkWant, nil))
			}
		}()
		start := time.Now()
		for i := 0; time.Since(start) < win.length || i < win.minRounds; i++ {
			tag := dist.CampaignTag{Tenant: "probe", Name: fmt.Sprintf("probe-%d-%d", p.seed, i)}
			out.Served = append(out.Served, runServed(ctx, c, p.spec, tag, p.want, win.rec))
		}
		stopBulk()
		wg.Wait()
		out.Window = time.Since(start)
	})
	if err != nil {
		return err
	}
	for _, s := range slices.Concat(out.Served, out.Bulk) {
		if s.ID != "" {
			out.Submitted += s.Pulls
		} else if s.State == controlplane.StateCanceled {
			out.LostAck = true
		}
	}
	return nil
}
