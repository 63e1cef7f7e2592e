// Ensemble batching: a Batch runs N built engines side by side. Replicas
// share nothing (each keeps its RNG streams and serial force order), so
// each steps bit-identically to the same engine run alone. No campaign
// path steps a Batch; it stays for the benchmark's batch metric.
package md

import (
	"fmt"
	"sync"
)

// BatchConfig tunes a Batch. It has no settings.
type BatchConfig struct{}

// Batch is a set of replica engines run side by side.
type Batch struct{ engines []*Engine }

// NewBatch groups engines that share an atom count, each listed once:
// StepN steps each on its own goroutine, so a repeat would race.
func NewBatch(engines []*Engine, _ BatchConfig) (*Batch, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("md: empty batch")
	}
	seen := make(map[*Engine]bool, len(engines))
	for r, e := range engines {
		switch {
		case e == nil:
			return nil, fmt.Errorf("md: nil engine at replica %d", r)
		case seen[e]:
			return nil, fmt.Errorf("md: replica %d repeats an earlier replica's engine", r)
		case e.top.N() != engines[0].top.N():
			return nil, fmt.Errorf("md: replica %d has %d atoms, replica 0 has %d", r, e.top.N(), engines[0].top.N())
		}
		seen[e] = true
	}
	return &Batch{engines: append([]*Engine(nil), engines...)}, nil
}

// StepN runs every replica's Run(n) on its own goroutine and waits for all.
func (b *Batch) StepN(n int) {
	var wg sync.WaitGroup
	wg.Add(len(b.engines))
	for _, e := range b.engines {
		go func() { defer wg.Done(); e.Run(n) }()
	}
	wg.Wait()
}

// Close is a no-op: a Batch holds no goroutine between StepN calls.
func (b *Batch) Close() {}
