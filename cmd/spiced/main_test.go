package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"spice/internal/dist"
)

// TestDistFlagDefaults walks every dist flag of both modes and requires
// its printed default to be the dist.Defaults() field it configures — a
// default edited in one place and not the other fails here instead of
// surfacing as flag help that lies. It then requires every exported
// dist.Config field to be what a deployment sets (bound by one of those
// flags), a hook, or one of the four named test seams: a knob that only
// tests set is a constant, not a field.
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

	bound := map[uintptr]bool{} // the Config fields the flags write to
	fs.VisitAll(func(f *flag.Flag) { bound[reflect.ValueOf(f.Value).Pointer()] = true })
	hooksAndSeams := map[string]bool{
		"FS": true, "Dial": true, "Metrics": true, "Events": true,
		"LeaseTTL": true, "HedgeFraction": true, "HedgeAfter": true,
	}
	wv, sv := reflect.ValueOf(&wcfg).Elem(), reflect.ValueOf(&scfg).Elem()
	for i := 0; i < wv.NumField(); i++ {
		field := wv.Type().Field(i)
		if !field.IsExported() || hooksAndSeams[field.Name] ||
			bound[wv.Field(i).Addr().Pointer()] || bound[sv.Field(i).Addr().Pointer()] {
			continue
		}
		t.Errorf("dist.Config.%s is bound by no spiced flag and is neither a hook nor a named test seam", field.Name)
	}
}

// TestWorkerRefusesShortIOTimeout: a worker -io-timeout under the lease
// TTL would time out on every idle poll the coordinator parks, so
// spiced refuses it at startup; 0 (no deadlines) and the 30 s default
// run.
func TestWorkerRefusesShortIOTimeout(t *testing.T) {
	for _, tc := range []struct {
		timeout time.Duration
		ok      bool
	}{{time.Second, false}, {0, true}, {30 * time.Second, true}} {
		cfg := dist.Defaults()
		cfg.IOTimeout = tc.timeout
		if err := checkIOTimeout(cfg); (err == nil) != tc.ok {
			t.Errorf("-io-timeout %v: checkIOTimeout = %v, want accepted %v", tc.timeout, err, tc.ok)
		}
	}
}

// TestServeRefusesUnrunnableSystem: a -system no pull can run stops
// spiced -serve before it listens or opens its journal, instead of
// accepting campaigns whose every pull then fails on every worker.
func TestServeRefusesUnrunnableSystem(t *testing.T) {
	defer func(sys, listen string) { *serveSystem, *serveListen = sys, listen }(*serveSystem, *serveListen)
	*serveListen = "127.0.0.1:0"
	for _, sys := range []string{`{"Beads":0}`, `{"Beads":8,"DT":-1}`, `{"Beads":8,"EquilSteps":-5}`} {
		*serveSystem = sys
		dcfg := dist.Defaults()
		dcfg.StateDir = t.TempDir()
		err := runServe(dcfg, nil, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "-system: ") {
			t.Fatalf("-system %s: runServe = %v, want a -system error", sys, err)
		}
		if ents, _ := os.ReadDir(dcfg.StateDir); len(ents) != 0 {
			t.Fatalf("-system %s: refused serve left %d entries in -state", sys, len(ents))
		}
	}
}
