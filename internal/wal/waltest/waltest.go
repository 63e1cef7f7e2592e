// Package waltest is the kill-point harness shared by wal's own tests
// and by the tests of the package that owns a log (dist's job journal),
// so one sweep covers the protocol and the production fold.
package waltest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spice/internal/faultfs"
	"spice/internal/wal"
)

// CopyDir clones the flat files of a state directory.
func CopyDir(t testing.TB, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TmpFiles lists the *.tmp entries of dir.
func TmpFiles(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}

// CompactionSweep injects a fault at EVERY mutating filesystem
// operation of Compact in turn — once as a transient error (the
// operation fails, later ones succeed) and once as a crash (it and
// everything after it fails) — and requires that no kill point can
// change what the log replays to: the fold's fingerprint stays equal to
// the pre-compaction one, the log reopens, no temp file survives the
// reopen, and it takes a synced append.
//
// cfg names the files (Dir and FS are the harness's); seed fills a fresh
// log with the reference history, which should include one Compact so
// the sweep replaces an existing snapshot; noop makes a record the fold
// ignores.
func CompactionSweep[R any, P wal.Record[R], F wal.Fold[R]](t *testing.T, cfg wal.Config,
	newFold func() F, seed func(lg *wal.Log[R, P]), noop func() P, fingerprint func(F) string) {
	t.Helper()
	open := func(dir string, fsys faultfs.FS) *wal.Log[R, P] {
		t.Helper()
		c := cfg
		c.Dir, c.FS = dir, fsys
		lg, _, _, err := wal.Open[R, P](c, newFold)
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return lg
	}
	folded := func(dir string) string {
		t.Helper()
		c := cfg
		c.Dir, c.FS = dir, nil
		f := newFold()
		if _, err := wal.Scan[R, P](c, f); err != nil {
			t.Fatalf("replay of %s: %v", dir, err)
		}
		return fingerprint(f)
	}

	ref := t.TempDir()
	lg := open(ref, nil)
	seed(lg)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	want := folded(ref)

	// Dry run: count the mutating ops a fault-free compaction performs,
	// and confirm it is itself state-preserving.
	probe := t.TempDir()
	CopyDir(t, ref, probe)
	inj := faultfs.NewInjector(nil)
	lg = open(probe, inj)
	before := inj.Ops()
	if err := lg.Compact(); err != nil {
		t.Fatal(err)
	}
	steps := inj.Ops() - before
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if folded(probe) != want {
		t.Fatal("fault-free compaction changed the folded state")
	}
	if steps < 5 {
		t.Fatalf("compaction took only %d mutating ops; sweep would prove nothing", steps)
	}

	leftTmp := 0
	for _, crash := range []bool{false, true} {
		for k := int64(1); k <= steps; k++ {
			dir := t.TempDir()
			CopyDir(t, ref, dir)
			inj := faultfs.NewInjector(nil)
			lg := open(dir, inj)
			if crash {
				inj.WedgeAt(k, faultfs.EIO)
			} else {
				inj.FailAt(k, faultfs.EIO)
			}
			cerr := lg.Compact()
			_ = lg.Close() // the file may be beyond flushing; replay is the judge
			if !crash && inj.Faults() != 1 {
				t.Fatalf("kill point %d: delivered %d faults, want 1", k, inj.Faults())
			}
			if folded(dir) != want {
				t.Fatalf("kill point %d (crash=%v, compact err %v): replayed state diverged", k, crash, cerr)
			}
			leftTmp += len(TmpFiles(t, dir))
			// The survivor must reopen cleanly and take new appends.
			lg2 := open(dir, nil)
			if tmp := TmpFiles(t, dir); len(tmp) > 0 {
				t.Fatalf("kill point %d (crash=%v): %v survived the reopen", k, crash, tmp)
			}
			if err := lg2.Append(noop(), true); err != nil {
				t.Fatalf("kill point %d (crash=%v): append after recovery: %v", k, crash, err)
			}
			if err := lg2.Close(); err != nil {
				t.Fatal(err)
			}
			if folded(dir) != want {
				t.Fatalf("kill point %d (crash=%v): state changed across reopen", k, crash)
			}
		}
	}
	if leftTmp == 0 {
		t.Fatal("no kill point left a temp file behind; the stale-tmp check proved nothing")
	}
}

// FormatFrozen pins a log's on-disk contract against golden, a state
// directory recorded from the last commit before internal/wal existed
// (its log and snapshot files, plus fold.json: the fingerprint that
// commit's replay computed). The golden files must replay to that fold
// and take appends, and seed — the sequence that wrote them — must still
// write the same bytes.
func FormatFrozen[R any, P wal.Record[R], F wal.Fold[R]](t *testing.T, cfg wal.Config, golden string,
	newFold func() F, seed func(lg *wal.Log[R, P]), noop func() P, fingerprint func(F) string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(golden, "fold.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	CopyDir(t, golden, cfg.Dir)
	lg, fold, rep, err := wal.Open[R, P](cfg, newFold)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(fold) + "\n"; got != string(want) || rep.TornErr != nil {
		t.Fatalf("golden files replay to\n%s(torn: %v), want\n%s", got, rep.TornErr, want)
	}
	if err := lg.Append(noop(), true); err != nil {
		t.Fatalf("append to the golden log: %v", err)
	}
	lg.Close()

	cfg.Dir = t.TempDir()
	if lg, _, _, err = wal.Open[R, P](cfg, newFold); err != nil {
		t.Fatal(err)
	}
	seed(lg)
	lg.Close()
	for _, name := range []string{cfg.LogName, cfg.SnapName} {
		got, err := os.ReadFile(filepath.Join(cfg.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the recorded bytes:\n got %q\nwant %q", name, got, want)
		}
	}
}
