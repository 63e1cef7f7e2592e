//go:build race

package wire

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a quarter of what is put back, so an allocation bound
// on a pooled path does not hold.
const raceEnabled = true
