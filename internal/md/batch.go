// Ensemble batching: Batch adopts N already-built engines that share a
// topology and box and steps them as one ensemble. Replica state is
// re-backed into flat replica-strided SoA arrays (positions, velocities,
// forces), identical per-atom pair-parameter tables are shared, and Step
// schedules one work item per replica onto a persistent worker pool; each
// replica's forces are summed on the worker that steps it.
//
// None of this changes any trajectory: each replica keeps its own RNG
// streams and its own serial force summation order, so batched
// and per-engine execution of the same replica produce byte-identical
// positions and velocities — the determinism tests pin this at 1, 8 and
// 32 replicas. No campaign path steps a Batch; it is kept as the engine a
// parallel-pulling protocol (many replicas on one moving restraint) would
// step.
package md

import (
	"fmt"
	"runtime"
	"sync"

	"spice/internal/vec"
)

// BatchConfig tunes a Batch.
type BatchConfig struct {
	// Workers sizes the replica-step pool (default GOMAXPROCS): up to
	// Workers replicas step at once, each on one goroutine. This is the
	// only parallelism in md; a single engine never splits its step.
	Workers int
}

// Batch owns a set of replica engines stepped as one ensemble.
type Batch struct {
	engines []*Engine

	// Flat SoA state backing, replica-strided: replica r's positions are
	// posBase[r*n : (r+1)*n], and likewise for velocities and forces.
	posBase, velBase, forceBase []vec.V

	tasks chan int32
	wg    sync.WaitGroup
	quit  chan struct{}
	once  sync.Once
}

// NewBatch adopts engines into an ensemble batch. The engines must be
// freshly built or otherwise exclusively owned by the caller (the batch
// re-backs their state arrays), share an atom count, and not already
// belong to another batch. Engines keep working through their
// own methods (Step, Checkpoint, Restore, Clone) after adoption.
func NewBatch(engines []*Engine, bc BatchConfig) (*Batch, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("md: empty batch")
	}
	e0 := engines[0]
	n := e0.top.N()
	for r, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("md: nil engine at replica %d", r)
		}
		if e.adopted {
			return nil, fmt.Errorf("md: replica %d already belongs to a batch", r)
		}
		if e.top.N() != n {
			return nil, fmt.Errorf("md: replica %d has %d atoms, replica 0 has %d", r, e.top.N(), n)
		}
	}
	if bc.Workers <= 0 {
		bc.Workers = runtime.GOMAXPROCS(0)
	}

	b := &Batch{
		engines:   append([]*Engine(nil), engines...),
		posBase:   make([]vec.V, len(engines)*n),
		velBase:   make([]vec.V, len(engines)*n),
		forceBase: make([]vec.V, len(engines)*n),
		tasks:     make(chan int32, len(engines)),
		quit:      make(chan struct{}),
	}

	// Re-back every replica's dynamical state into the strided SoA
	// arrays (three-index slicing so an append on one replica's view can
	// never bleed into the next).
	for r, e := range engines {
		st := e.state
		lo, hi := r*n, (r+1)*n
		copy(b.posBase[lo:hi], st.Pos)
		copy(b.velBase[lo:hi], st.Vel)
		copy(b.forceBase[lo:hi], st.Force)
		st.Pos = b.posBase[lo:hi:hi]
		st.Vel = b.velBase[lo:hi:hi]
		st.Force = b.forceBase[lo:hi:hi]
		e.adopted = true
	}

	// Share the immutable per-atom parameter tables when they really are
	// identical across replicas (same builder, same topology values).
	if e0.charges != nil {
		shareable := true
		for _, e := range engines[1:] {
			if !float64sEqual(e.charges, e0.charges) || !float64sEqual(e.radii, e0.radii) {
				shareable = false
				break
			}
		}
		if shareable {
			for _, e := range engines[1:] {
				e.charges = e0.charges
				e.radii = e0.radii
			}
		}
	}

	for w := 0; w < bc.Workers; w++ {
		go b.runStepWorker()
	}
	runtime.SetFinalizer(b, func(b *Batch) { b.shutdown() })
	return b, nil
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Engine returns replica r's engine.
func (b *Batch) Engine(r int) *Engine { return b.engines[r] }

// Step advances every replica by one timestep, scheduling one work item
// per replica onto the batch pool and waiting for all of them.
// Steady-state cost is allocation-free.
func (b *Batch) Step() {
	b.wg.Add(len(b.engines))
	for r := range b.engines {
		b.tasks <- int32(r)
	}
	b.wg.Wait()
}

// StepN advances all replicas n timesteps.
func (b *Batch) StepN(n int) {
	for i := 0; i < n; i++ {
		b.Step()
	}
}

func (b *Batch) runStepWorker() {
	for {
		select {
		case r := <-b.tasks:
			b.engines[r].Step()
			b.wg.Done()
		case <-b.quit:
			return
		}
	}
}

func (b *Batch) shutdown() {
	b.once.Do(func() { close(b.quit) })
}

// Close stops the batch's worker pool. The batch and its engines must
// not step afterwards. Optional — a collected Batch is shut down by a
// finalizer.
func (b *Batch) Close() {
	b.shutdown()
	runtime.SetFinalizer(b, nil)
}
