package main

import (
	"flag"
	"fmt"
	"testing"

	"spice/internal/dist"
)

// TestDistFlagDefaults walks every dist flag and requires its printed
// default to be the dist.Defaults() field it configures — a default
// edited in one place and not the other fails here instead of
// surfacing as flag help that lies.
func TestDistFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("spice", flag.ContinueOnError)
	c := dist.Defaults()
	distFlags(fs, &c)

	d := dist.Defaults()
	want := map[string]any{
		"state":             d.StateDir,
		"compact-bytes":     d.CompactBytes,
		"storage-retries":   d.StorageRetries,
		"breaker-threshold": d.BreakerThreshold,
		"breaker-cooldown":  d.BreakerCooldown,
		"hedge-fraction":    d.HedgeFraction,
		"hedge-stall":       d.HedgeStall,
		"io-timeout":        d.IOTimeout,
		"max-inflight":      d.MaxInflight,
	}
	fs.VisitAll(func(f *flag.Flag) {
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("-%s is bound by distFlags but missing from this table", f.Name)
			return
		}
		if f.DefValue != fmt.Sprint(w) {
			t.Errorf("-%s defaults to %q, dist.Defaults() says %v", f.Name, f.DefValue, w)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("-%s is not registered", name)
	}
}
