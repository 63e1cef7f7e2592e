package md

import (
	"testing"
	"time"
)

func TestStepObserverSampling(t *testing.T) {
	eng := smallChain(t, 7)

	var n int
	var total time.Duration
	eng.SetStepObserver(4, func(d time.Duration) {
		n++
		total += d
		if d < 0 {
			t.Fatalf("negative step latency %v", d)
		}
	})
	eng.Run(16)
	if n != 4 {
		t.Fatalf("every=4 over 16 steps observed %d samples, want 4", n)
	}
	if total <= 0 {
		t.Fatalf("observed zero total latency over %d samples", n)
	}

	// Removing the observer stops sampling; the engine keeps stepping.
	eng.SetStepObserver(0, nil)
	eng.Run(8)
	if n != 4 {
		t.Fatalf("observer fired %d times after removal, want still 4", n)
	}
}

// TestStepObserverDeterminism: instrumentation may never perturb the
// trajectory — the whole dist layer's bit-identical story rides on it.
func TestStepObserverDeterminism(t *testing.T) {
	plain := smallChain(t, 11)
	defer plain.Close()
	sampled := smallChain(t, 11)
	defer sampled.Close()
	sampled.SetStepObserver(2, func(time.Duration) {})

	plain.Run(50)
	sampled.Run(50)
	for i := range plain.state.Pos {
		if plain.state.Pos[i] != sampled.state.Pos[i] {
			t.Fatalf("observer perturbed trajectory at atom %d: %v != %v",
				i, plain.state.Pos[i], sampled.state.Pos[i])
		}
	}
}

func TestNeighborObserver(t *testing.T) {
	eng := smallChain(t, 13)

	rebuilds, lastPairs := 0, -1
	eng.SetNeighborObserver(func(pairs int) {
		rebuilds++
		lastPairs = pairs
	})
	eng.Run(25)
	if rebuilds < 1 {
		t.Fatal("neighbor observer never fired over 25 steps")
	}
	if lastPairs != eng.NeighborStats().Pairs {
		t.Fatalf("observer saw %d pairs, list holds %d", lastPairs, eng.NeighborStats().Pairs)
	}
	if got := eng.NeighborStats().Rebuilds; got != rebuilds {
		t.Fatalf("observer counted %d rebuilds, list stats say %d", rebuilds, got)
	}
}
