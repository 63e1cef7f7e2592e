package spice

// BenchmarkAblation_WireLoad — the wire-protocol load experiment
// (DESIGN.md §15): one coordinator, a 1000-worker loopback fleet, and a
// checkpoint-heavy synthetic campaign over the one transport: binary
// framing, compression and delta checkpoints. The workers are hand-rolled
// protocol clients (no MD), so the benchmark isolates exactly what the
// transport costs: bytes moved per job, process CPU per work poll
// (coordinator and loopback fleet share one process — the honest total
// cost of coordination), and the ParSPICE-style break-even task size
// below which coordination
// overhead eats the distribution win.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/trace"
	"spice/internal/wire"
)

// wireLoadCkpts is how many checkpoints each synthetic job streams
// before its result: enough that the steady-state delta path, not the
// one mandatory full image, dominates the per-job byte count.
const wireLoadCkpts = 8

// syntheticCkpt builds the step'th checkpoint document of a job: a
// JSON pull-state lookalike (~4 KiB of positions) where consecutive
// steps differ in a handful of entries — the shape a real SMD
// checkpoint has, where one heartbeat advances a few coordinates and
// counters while the bulk of the document is unchanged. Its header
// carries what smd.PullCheckpoint.Validate asks of a resumable image
// (an engine image, a sample, a next sample index), since the
// coordinator refuses to store anything less.
func syntheticCkpt(seed uint64, step int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"Engine":{"Step":%d,"Seed":%d},"Samples":[{"Lambda":0}],"Steps":%d,"Next":1,"positions":[`,
		step*100, seed, step*100)
	for i := 0; i < 400; i++ {
		v := float64(i%97) * 0.25
		for _, stride := range []int{1, 7, 13} {
			if i == (step*stride)%400 {
				v += float64(step) * 0.001
			}
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%.6f", v)
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

// wireLoadTotals aggregates the fleet's client-side checkpoint traffic.
type wireLoadTotals struct {
	rawBytes  atomic.Int64 // serialized checkpoint documents
	wireBytes atomic.Int64 // payload bytes after compression/delta
	ckpts     atomic.Int64
}

// wireLoadClient is one synthetic worker: hello, then a poll loop that
// drains jobs, streaming wireLoadCkpts checkpoints per job exactly the
// way internal/dist's worker does — full image first (or after a
// NeedFull), deltas against the last acknowledged base afterwards.
func wireLoadClient(ctx context.Context, addr, name string, tot *wireLoadTotals) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	codec, err := wire.Open(conn, conn, name, "")
	if err != nil {
		return err
	}

	rt := func(req *wire.Request) (*wire.Response, error) {
		if err := codec.Encode(req); err != nil {
			return nil, err
		}
		var resp wire.Response
		if err := codec.Decode(&resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}

	for {
		if ctx.Err() != nil {
			return nil
		}
		resp, err := rt(&wire.Request{Type: wire.MsgNext})
		if err != nil {
			// The campaign is done and the coordinator was closed under
			// us — a clean exit, not a failure.
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		switch resp.Type {
		case wire.MsgAssign:
			job := resp.Job
			var base []byte
			for k := 1; k <= wireLoadCkpts; k++ {
				raw := syntheticCkpt(job.Seed, k)
				p := codec.Pack(base, raw)
				tot.rawBytes.Add(int64(len(raw)))
				tot.wireBytes.Add(int64(p.WireLen()))
				tot.ckpts.Add(1)
				ack, err := rt(&wire.Request{Type: wire.MsgProgress, JobID: job.ID, Attempt: job.Attempt, Ckpt: p})
				if err != nil {
					return err
				}
				switch {
				case ack.NeedFull:
					base = nil
				case ack.Type == wire.MsgOK && ack.Err == "":
					base = raw
				}
			}
			log := &trace.WorkLog{
				Kappa:    job.Combo.KappaPN,
				Velocity: job.Combo.VAns,
				Seed:     job.Seed,
				Samples:  []trace.WorkSample{{Lambda: 1, Z: 1, Work: float64(job.Index)}},
			}
			if _, err := rt(&wire.Request{Type: wire.MsgResult, JobID: job.ID, Attempt: job.Attempt, Log: log}); err != nil {
				return err
			}
		case wire.MsgWait:
			delay := time.Duration(resp.DelayMs) * time.Millisecond
			if delay <= 0 {
				delay = time.Millisecond
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil
			}
		case wire.MsgDrained:
			return nil
		default:
			return fmt.Errorf("unexpected %q to next", resp.Type)
		}
	}
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWireLoad executes one fleet-sized campaign and reports the
// transport metrics.
func runWireLoad(b *testing.B, nWorkers int) {
	// 20 κ × 10 v × 5 replicas = 1000 jobs: one per worker on average,
	// so the poll/grant/heartbeat churn — not job compute, there is
	// none — is the entire load.
	spec := campaign.Spec{
		Kappas:     make([]float64, 20),
		Velocities: make([]float64, 10),
		Replicas:   5,
		Distance:   1,
		Seed:       7,
	}
	for i := range spec.Kappas {
		spec.Kappas[i] = float64(10 + i)
	}
	for i := range spec.Velocities {
		spec.Velocities[i] = float64(100 + 10*i)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	// Production Defaults() with a long lease and no rate hedging (the
	// synthetic clients stream uneven progress; a hedge would duplicate
	// load at random).
	dcfg := dist.Defaults()
	dcfg.LeaseTTL = 30 * time.Second
	dcfg.HedgeFraction = 0
	co, err := dist.NewCoordinator(ln, json.RawMessage(`{"synthetic":true}`), dcfg)
	if err != nil {
		b.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		tot     wireLoadTotals
		wg      sync.WaitGroup
		cliErrs = make(chan error, nWorkers)
	)
	cpu0 := processCPU()
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := wireLoadClient(ctx, ln.Addr().String(), fmt.Sprintf("lb-%d", i), &tot); err != nil {
				cliErrs <- err
			}
		}(i)
	}

	start := time.Now()
	if _, err := co.Run(spec); err != nil {
		b.Fatal(err)
	}
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	cancel()
	_ = co.Close()
	wg.Wait()
	select {
	case err := <-cliErrs:
		b.Fatal(err)
	default:
	}

	st := co.Stats()
	jobs := float64(st.Jobs)
	raw, wired := float64(tot.rawBytes.Load()), float64(tot.wireBytes.Load())
	b.ReportMetric(float64(st.BytesIn+st.BytesOut)/jobs, "bytes/job")
	b.ReportMetric(raw/jobs, "ckpt_raw_B/job")
	b.ReportMetric(wired/jobs, "ckpt_wire_B/job")
	if wired > 0 {
		b.ReportMetric(raw/wired, "ckpt_reduction_x")
	}
	if st.WorkPolls > 0 {
		b.ReportMetric(float64(cpu.Microseconds())/float64(st.WorkPolls), "cpu_us/poll")
	}
	cpuPerJob := float64(cpu.Microseconds()) / jobs
	b.ReportMetric(cpuPerJob, "cpu_us/job")
	// ParSPICE-style break-even: with coordination costing cpuPerJob of
	// CPU per task, a task must compute for ≥19× that to keep parallel
	// efficiency above 95% (eff = T/(T+overhead)). Tasks shorter than
	// this are better batched or run locally.
	b.ReportMetric(cpuPerJob*19/1000, "breakeven_ms_95pct")
	b.Logf("wire-load: %d workers, %d jobs, %d ckpts in %v (%.0f B/job wire ckpt, %.1fx reduction, %d deltas folded, %d polls)",
		nWorkers, st.Jobs, tot.ckpts.Load(), wall.Round(time.Millisecond),
		wired/jobs, raw/max64(wired, 1), st.DeltasFolded, st.WorkPolls)
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkAblation_WireLoad runs the transport under a 1000-worker
// loopback fleet. The headline metric is ckpt_reduction_x: raw
// checkpoint bytes over bytes on the wire, which is ≥10× on checkpoint
// streams with realistic step-to-step overlap (scripts/ci.sh gates on
// it; BENCH_6.json keeps the full-image JSON-lines baseline it was
// measured against).
func BenchmarkAblation_WireLoad(b *testing.B) {
	const nWorkers = 1000
	b.Run(fmt.Sprintf("v1-binary-delta/workers=%d", nWorkers), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runWireLoad(b, nWorkers)
		}
	})
}
