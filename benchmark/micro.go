package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"spice/internal/campaign"
	"spice/internal/grid"
	"spice/internal/md"
	"spice/internal/smd"
	"spice/internal/trace"
	"spice/internal/wire"
)

// Direct-call costs: each layer's public entry points called from this
// file with a stopwatch around them, on the payloads the workload's own
// pulls produce. They run while no fleet is up, so the numbers are the
// layer alone.

// perCall times fn in batches until budget has passed and returns the
// cost of one call. The minimum over the batches is reported: these are
// CPU-bound loops, and anything above the minimum is the scheduler.
func perCall(budget time.Duration, batch int, fn func()) time.Duration {
	fn() // warm caches and lazy set-up
	best := time.Duration(0)
	for start := time.Now(); time.Since(start) < budget || best == 0; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if d := time.Since(t0) / time.Duration(batch); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// allocsPer counts heap allocations per call of fn, averaged over n
// calls. Nothing else is running when it is called.
func allocsPer(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

const microBudget = 40 * time.Millisecond

// pullBudget bounds the direct pulls: at least one pair, then more
// pairs until this much time has gone.
const pullBudget = time.Second

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// typicalTask picks the task of median expected length (pull distance
// over velocity) so that one direct pull stands for the campaign.
func typicalTask(spec campaign.Spec) campaign.Task {
	tasks := spec.Tasks()
	sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].Combo.VAns > tasks[b].Combo.VAns })
	return tasks[len(tasks)/2]
}

// directPull runs one pull through campaign.ExecutePull the way a worker
// does, returning the time spent building the engine, the time spent
// pulling, the work log and, when checkpoints is true, every checkpoint
// document serialized as the worker serializes it.
func directPull(spec campaign.Spec, t campaign.Task, checkpoints bool) (build, pull time.Duration, log *trace.WorkLog, ckpts [][]byte, err error) {
	var opts smd.RunOpts
	if checkpoints {
		opts.CheckpointEvery = 8 // dist.Defaults().CheckpointEvery
		opts.OnCheckpoint = func(pc *smd.PullCheckpoint) error {
			b, err := json.Marshal(pc)
			ckpts = append(ckpts, b)
			return err
		}
	}
	start := time.Now()
	log, err = campaign.ExecutePull(spec, t, func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) {
		t0 := time.Now()
		eng, sel, err := systemUnderTest.Build(seed)
		build = time.Since(t0)
		return eng, sel, err
	}, opts)
	return build, time.Since(start) - build, log, ckpts, err
}

// microCosts measures the direct-call metrics for one workload's spec.
func microCosts(spec campaign.Spec, m metrics) error {
	// md and neighbor: one engine on one goroutine, then eight replicas
	// in one md.Batch — the headroom batch-aware leasing could unlock.
	eng, _, err := systemUnderTest.Build(spec.Seed)
	if err != nil {
		return err
	}
	const steps = 200
	m.set("md.step_ns", float64(perCall(3*microBudget, 1, func() { eng.Run(steps) }))/steps)
	m.set("md.allocs_per_step", allocsPer(5, func() { eng.Run(steps) })/steps)
	ns := eng.NeighborStats()
	m.set("neighbor.steps_per_rebuild", ns.AvgInterval)
	m.set("neighbor.pairs_per_rebuild", ns.AvgPairs)
	eng.Close()

	const replicas = 8
	engines := make([]*md.Engine, replicas)
	for r := range engines {
		if engines[r], _, err = systemUnderTest.Build(spec.Seed + uint64(r)); err != nil {
			return err
		}
	}
	batch, err := md.NewBatch(engines, md.BatchConfig{})
	if err != nil {
		return err
	}
	m.set("md.batch_step_ns_per_replica", float64(perCall(3*microBudget, 1, func() { batch.StepN(steps) }))/(steps*replicas))
	batch.Close()

	// smd: the typical pull directly, without and with the checkpoint
	// callback a worker installs, in alternating pairs for as long as the
	// budget allows; the fastest of each side is compared, since anything
	// slower is the machine, not the callback.
	task := typicalTask(spec)
	var plain, withCkpt time.Duration
	var log *trace.WorkLog
	var ckpts [][]byte
	for start := time.Now(); plain == 0 || time.Since(start) < pullBudget; {
		_, p, l, _, err := directPull(spec, task, false)
		if err != nil {
			return err
		}
		_, c, _, ck, err := directPull(spec, task, true)
		if err != nil {
			return err
		}
		if plain == 0 || p < plain {
			plain = p
		}
		if withCkpt == 0 || c < withCkpt {
			withCkpt = c
		}
		log, ckpts = l, ck
	}
	m.set("smd.pull_local_ms", ms(plain))
	m.set("smd.checkpoint_overhead_ratio", float64(withCkpt)/float64(plain))

	// wire: the payload paths on two consecutive checkpoints of that
	// pull, and the v1 codec on the progress message that carries them.
	if len(ckpts) < 2 {
		return fmt.Errorf("direct pull of %s produced %d checkpoints, need 2 for the delta path", task.Combo, len(ckpts))
	}
	base, raw := ckpts[len(ckpts)/2-1], ckpts[len(ckpts)/2]
	delta := wire.Delta(base, raw)
	m.set("wire.delta_encode_us", us(perCall(microBudget, 4, func() { wire.Delta(base, raw) })))
	m.set("wire.delta_resolve_us", us(perCall(microBudget, 4, func() {
		if _, err := delta.Resolve(base); err != nil {
			panic(err) // a payload this file just encoded
		}
	})))
	m.set("wire.compress_us", us(perCall(microBudget, 4, func() { wire.Compress(raw) })))
	req := &wire.Request{Type: wire.MsgProgress, JobID: "bench.smdje-k100-v100-r0", Attempt: 1, Ckpt: delta}
	var frame bytes.Buffer
	enc := wire.NewCodec(wire.V1, &frame, &frame, true)
	encode := func() {
		frame.Reset()
		if err := enc.Encode(req); err != nil {
			panic(err)
		}
	}
	// The stream magic precedes only the first record a codec writes, so
	// the first frame is kept for the decoder, which is fed the magic once
	// and then the same record for as long as it asks.
	encode()
	framed := append([]byte(nil), frame.Bytes()...)
	m.set("wire.codec_encode_us", us(perCall(microBudget, 16, encode)))
	dec := wire.NewCodec(wire.V1, &repeatReader{head: framed[:trace.MagicLen], body: framed[trace.MagicLen:]}, io.Discard, true)
	decode := func() {
		var got wire.Request
		if err := dec.Decode(&got); err != nil {
			panic(err)
		}
	}
	m.set("wire.codec_decode_us", us(perCall(microBudget, 16, decode)))
	m.set("wire.allocs_per_msg", allocsPer(200, func() { encode(); decode() }))

	// trace: a work log as it travels (JSON, in the result message, the
	// journal and the HTTP result) and one CRC-framed record append.
	logJSON, err := json.Marshal(log)
	if err != nil {
		return err
	}
	m.set("trace.worklog_bytes", float64(len(logJSON)))
	m.set("trace.worklog_encode_us", us(perCall(microBudget, 4, func() { json.Marshal(log) })))
	m.set("trace.worklog_decode_us", us(perCall(microBudget, 4, func() {
		var wl trace.WorkLog
		if err := json.Unmarshal(logJSON, &wl); err != nil {
			panic(err)
		}
	})))
	var recBuf bytes.Buffer
	rw := trace.NewRecordWriter(&recBuf, false)
	m.set("trace.record_append_us", us(perCall(microBudget, 16, func() {
		recBuf.Reset()
		if err := rw.Append(logJSON); err != nil {
			panic(err)
		}
		rw.Flush()
	})))

	// grid: one fair-share ranking of eight queued campaigns.
	pol := grid.NewPolicy(1)
	cands := make([]grid.Candidate, 8)
	for i := range cands {
		cands[i] = grid.Candidate{Tenant: fmt.Sprintf("t%d", i%3), Priority: i % 2, WaitHours: float64(i) / 60, Seq: i}
		pol.Charge(cands[i].Tenant, float64(i))
	}
	m.set("grid.rank_us", us(perCall(microBudget, 64, func() { pol.Rank(cands, nil) })))

	// campaign: collating one campaign's logs into the result shape.
	tasks := spec.Tasks()
	logs := make([]*trace.WorkLog, len(tasks))
	for i := range logs {
		logs[i] = log
	}
	m.set("campaign.collate_us", us(perCall(microBudget, 16, func() { campaign.Collate(tasks, logs) })))
	return nil
}

// repeatReader yields head once and then body forever.
type repeatReader struct {
	head, body []byte
	off        int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.head) > 0 {
		n := copy(p, r.head)
		r.head = r.head[n:]
		return n, nil
	}
	n := copy(p, r.body[r.off:])
	r.off = (r.off + n) % len(r.body)
	return n, nil
}
