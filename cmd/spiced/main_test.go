package main

import (
	"flag"
	"fmt"
	"testing"

	"spice/internal/dist"
)

// TestDistFlagDefaults walks every dist flag of both modes and requires
// its printed default to be the dist.Defaults() field it configures — a
// default edited in one place and not the other fails here instead of
// surfacing as flag help that lies.
func TestDistFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("spiced", flag.ContinueOnError)
	wcfg, scfg := dist.Defaults(), dist.Defaults()
	workerFlags(fs, &wcfg)
	serveFlags(fs, &scfg)

	d := dist.Defaults()
	want := map[string]any{
		"io-timeout":        d.IOTimeout,
		"slots":             d.Slots,
		"beat":              d.BeatInterval,
		"ckpt-every":        d.CheckpointEvery,
		"throttle":          d.Throttle,
		"reconnect-window":  d.ReconnectWindow,
		"reconnect-backoff": d.ReconnectBackoffMax,
		"state":             d.StateDir,
		"compact-bytes":     d.CompactBytes,
		"storage-retries":   d.StorageRetries,
		"max-inflight":      d.MaxInflight,
	}
	fs.VisitAll(func(f *flag.Flag) {
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("-%s is bound by workerFlags/serveFlags but missing from this table", f.Name)
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
