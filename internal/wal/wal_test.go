package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spice/internal/faultfs"
	"spice/internal/obs"
	"spice/internal/trace"
	"spice/internal/wal"
	"spice/internal/wal/waltest"
)

// rec and counter are the trivial owner the suite runs the log under:
// "add" records count how often each ID was applied, which is exactly
// what a replay bug (a record dropped, or applied twice) changes.
type rec struct {
	T string `json:"t"`
	wal.Stamp
	ID int `json:"id,omitempty"`
	N  int `json:"n,omitempty"` // snapshot: condensed repeat count
}

type counter struct {
	seen  map[int]int
	order []int
	seqs  map[uint64]int // how often each nonzero sequence was applied
}

func newCounter() *counter { return &counter{seen: map[int]int{}, seqs: map[uint64]int{}} }

func (c *counter) Apply(r *rec) {
	if r.Seq != 0 {
		c.seqs[r.Seq]++
	}
	if r.T != "add" {
		return
	}
	if c.seen[r.ID] == 0 {
		c.order = append(c.order, r.ID)
	}
	c.seen[r.ID] += max(r.N, 1)
}

func (c *counter) Snapshot(emit func(*rec)) {
	emit(&rec{T: "snap"})
	for _, id := range c.order {
		emit(&rec{T: "add", ID: id, N: c.seen[id]})
	}
}

func (c *counter) String() string { return fmt.Sprint(c.order, c.seen) }

func testConfig(dir string, fsys faultfs.FS) wal.Config {
	return wal.Config{FS: fsys, Dir: dir, LogName: "log", SnapName: "snap"}
}

func open(t testing.TB, cfg wal.Config) (*wal.Log[rec, *rec], *counter, wal.Replay) {
	t.Helper()
	lg, c, rep, err := wal.Open[rec](cfg, newCounter)
	if err != nil {
		t.Fatal(err)
	}
	return lg, c, rep
}

func scan(t testing.TB, dir string) *counter {
	t.Helper()
	c := newCounter()
	if _, err := wal.Scan[rec](testConfig(dir, nil), c); err != nil {
		t.Fatal(err)
	}
	return c
}

func add(id int) *rec { return &rec{T: "add", ID: id} }

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCompactionKillPointSweep runs the shared compaction sweep under
// the counter fold.
func TestCompactionKillPointSweep(t *testing.T) {
	seed := func(lg *wal.Log[rec, *rec]) {
		for i := 1; i <= 12; i++ {
			if err := lg.Append(add(i%5), i%3 == 0); err != nil {
				t.Fatal(err)
			}
			if i == 6 {
				if err := lg.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	waltest.CompactionSweep(t, testConfig("", nil), newCounter, seed,
		func() *rec { return &rec{T: "noop"} }, (*counter).String)
}

// TestAppendKillPointSweep injects a fault at EVERY mutating filesystem
// operation of a mixed synced/unsynced append sequence that crosses the
// compaction threshold several times — as a transient error and as a
// crash, with and without append retries — then reopens and requires:
// every append that returned nil with sync is present, no record and no
// sequence was applied twice, no refused record is present (transient
// faults only: a crashed disk cannot be repaired), and the log takes
// appends again.
func TestAppendKillPointSweep(t *testing.T) {
	const n = 30
	type outcome struct{ acked, synced bool }
	run := func(lg *wal.Log[rec, *rec]) map[int]outcome {
		got := make(map[int]outcome, n)
		for id := 1; id <= n; id++ {
			sync := id%3 == 0
			got[id] = outcome{acked: lg.Append(add(id), sync) == nil, synced: sync}
		}
		return got
	}
	config := func(dir string, fsys faultfs.FS, retries int) wal.Config {
		cfg := testConfig(dir, fsys)
		cfg.CompactBytes, cfg.Retries = 256, retries
		return cfg
	}

	inj := faultfs.NewInjector(nil)
	lg, _, _ := open(t, config(t.TempDir(), inj, 0))
	before := inj.Ops()
	for id, o := range run(lg) {
		if !o.acked {
			t.Fatalf("fault-free append %d failed", id)
		}
	}
	steps := inj.Ops() - before
	if h := lg.Health(); h.Compactions < 2 {
		t.Fatalf("sequence compacted %d times; the sweep must cross the threshold", h.Compactions)
	}
	lg.Close()

	for _, crash := range []bool{false, true} {
		for retries := 0; retries <= 1; retries++ {
			for k := int64(1); k <= steps; k++ {
				name := fmt.Sprintf("kill point %d (crash=%v retries=%d)", k, crash, retries)
				dir := t.TempDir()
				inj := faultfs.NewInjector(nil)
				lg, _, _ := open(t, config(dir, inj, retries))
				if crash {
					inj.WedgeAt(k, faultfs.EIO)
				} else {
					inj.FailAt(k, faultfs.EIO)
				}
				got := run(lg)
				_ = lg.Close() // a crashed disk cannot flush; replay is the judge

				lg2, c, rep := open(t, config(dir, nil, 0))
				if rep.TornErr != nil {
					t.Fatalf("%s: torn tail %v: a failed append was left unrepaired", name, rep.TornErr)
				}
				for id, o := range got {
					switch {
					case o.acked && o.synced && c.seen[id] != 1:
						t.Fatalf("%s: acked synced record %d applied %d times", name, id, c.seen[id])
					case c.seen[id] > 1:
						t.Fatalf("%s: record %d applied %d times", name, id, c.seen[id])
					case !o.acked && !crash && c.seen[id] != 0:
						t.Fatalf("%s: refused record %d is on disk", name, id)
					}
				}
				for seq, times := range c.seqs {
					if times > 1 {
						t.Fatalf("%s: sequence %d applied %d times", name, seq, times)
					}
				}
				if tmp := waltest.TmpFiles(t, dir); len(tmp) > 0 {
					t.Fatalf("%s: %v survived the reopen", name, tmp)
				}
				if err := lg2.Append(add(n+1), true); err != nil {
					t.Fatalf("%s: append after recovery: %v", name, err)
				}
				lg2.Close()
				if scan(t, dir).seen[n+1] != 1 {
					t.Fatalf("%s: post-recovery append did not replay", name)
				}
			}
		}
	}
}

// TestTornTailEveryOffset cuts the log at EVERY byte offset inside its
// final record: each tear must be detected, measured and truncated away
// with every earlier record intact, and the log must take appends that
// survive another reopen.
func TestTornTailEveryOffset(t *testing.T) {
	ref := t.TempDir()
	lg, _, _ := open(t, testConfig(ref, nil))
	for id := 1; id <= 2; id++ {
		if err := lg.Append(add(id), true); err != nil {
			t.Fatal(err)
		}
	}
	cleanLen := lg.Health().Bytes
	if err := lg.Append(add(3), true); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	full, err := os.ReadFile(filepath.Join(ref, "log"))
	if err != nil {
		t.Fatal(err)
	}
	if cleanLen <= 0 || cleanLen >= int64(len(full)) {
		t.Fatalf("bad fixture: clean=%d full=%d", cleanLen, len(full))
	}
	for cut := cleanLen + 1; cut < int64(len(full)); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lg, c, rep := open(t, testConfig(dir, nil))
		if !errors.Is(rep.TornErr, trace.ErrTruncated) || rep.TornBytes != cut-cleanLen {
			t.Fatalf("cut %d: torn = %v / %d bytes, want ErrTruncated / %d", cut, rep.TornErr, rep.TornBytes, cut-cleanLen)
		}
		if c.String() != "[1 2] map[1:1 2:1]" {
			t.Fatalf("cut %d: replayed %v, want the two complete records", cut, c)
		}
		if got := fileSize(t, path); got != cleanLen {
			t.Fatalf("cut %d: truncated to %d, want clean length %d", cut, got, cleanLen)
		}
		if err := lg.Append(add(9), true); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		lg.Close()
		lg, c, rep = open(t, testConfig(dir, nil))
		lg.Close()
		if rep.TornErr != nil || c.String() != "[1 2 9] map[1:1 2:1 9:1]" {
			t.Fatalf("cut %d: reopen after repair: torn=%v state=%v", cut, rep.TornErr, c)
		}
	}
}

// TestReplaySnapshotAndLog pins the replay edge cases around a
// snapshot: snapshot + empty log (the post-compaction steady state),
// snapshot + torn log, and a log the crashed compaction never truncated
// (every record at or below the snapshot's sequence is skipped).
func TestReplaySnapshotAndLog(t *testing.T) {
	dir := t.TempDir()
	lg, _, _ := open(t, testConfig(dir, nil))
	for id := 1; id <= 4; id++ {
		if err := lg.Append(add(id%2), false); err != nil {
			t.Fatal(err)
		}
	}
	uncompacted, err := os.ReadFile(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	want := scan(t, dir).String()
	if err := lg.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, filepath.Join(dir, "log")); got != 0 {
		t.Fatalf("log not truncated after compaction: %d bytes", got)
	}
	if got := scan(t, dir).String(); got != want {
		t.Fatalf("snapshot + empty log replays %s, want %s", got, want)
	}

	// The crash between the snapshot's rename and the log truncation.
	if err := os.WriteFile(filepath.Join(dir, "log"), uncompacted, 0o644); err != nil {
		t.Fatal(err)
	}
	c := newCounter()
	rep, err := wal.Scan[rec](testConfig(dir, nil), c)
	if err != nil || c.String() != want || rep.Seq != 4 {
		t.Fatalf("snapshot + superseded log: err=%v state=%s rep=%+v, want %s", err, c, rep, want)
	}
	if err := os.Truncate(filepath.Join(dir, "log"), 0); err != nil {
		t.Fatal(err)
	}

	// New records behind the snapshot, the last one torn.
	if err := lg.Append(add(7), false); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(add(8), false); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	path := filepath.Join(dir, "log")
	if err := os.Truncate(path, fileSize(t, path)-3); err != nil {
		t.Fatal(err)
	}
	lg, c, rep = open(t, testConfig(dir, nil))
	defer lg.Close()
	if !errors.Is(rep.TornErr, trace.ErrTruncated) || c.seen[7] != 1 || c.seen[8] != 0 || c.seen[1] != 2 {
		t.Fatalf("snapshot + torn log: torn=%v state=%v", rep.TornErr, c)
	}
	if rep.Seq != 5 {
		t.Fatalf("sequence after compaction = %d, want it to continue at 5", rep.Seq)
	}
}

// TestRefusedAppendLeavesNoTrace is the eager-repair regression: when
// the write succeeds and the fsync fails, Append must truncate the
// framed record away BEFORE returning the error — a restart before the
// next append must not replay a record the caller was told was refused.
// Only when that truncate fails too (a dead disk) may the record linger,
// and then the next append repairs first.
func TestRefusedAppendLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	lg, _, _ := open(t, testConfig(dir, inj))
	defer lg.Close()
	if err := lg.Append(add(1), true); err != nil {
		t.Fatal(err)
	}
	clean := lg.Health().Bytes

	inj.FailAt(2, faultfs.EIO) // write succeeds, fsync fails
	if err := lg.Append(add(2), true); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append under fsync fault returned %v", err)
	}
	if c := scan(t, dir); c.seen[2] != 0 {
		t.Fatal("refused record is on disk before any further append")
	}
	if got := fileSize(t, filepath.Join(dir, "log")); got != clean {
		t.Fatalf("log is %d bytes after the refused append, want %d", got, clean)
	}

	inj.WedgeAt(2, faultfs.EIO) // fsync fails, and so does the repair
	if err := lg.Append(add(3), true); err == nil {
		t.Fatal("append on a dead disk succeeded")
	}
	inj.Clear()
	if err := lg.Append(add(4), true); err != nil {
		t.Fatal(err)
	}
	if c := scan(t, dir); c.String() != "[1 4] map[1:1 4:1]" {
		t.Fatalf("after deferred repair the log replays %v, want records 1 and 4", c)
	}
}

// TestHealthTransitions drives one degrade/recover cycle and checks the
// counters, the Notify calls and the exported metric families.
func TestHealthTransitions(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	cfg := testConfig(t.TempDir(), inj)
	cfg.Retries = 2
	var events []string
	cfg.Notify = func(degraded bool, fields map[string]any) {
		events = append(events, fmt.Sprint(degraded, " ", len(fields)))
	}
	lg, _, _ := open(t, cfg)
	defer lg.Close()

	inj.FailAt(1, faultfs.EIO) // one transient fault: absorbed by a retry
	if err := lg.Append(add(1), true); err != nil {
		t.Fatal(err)
	}
	if h := lg.Health(); h.Degraded || h.Errors != 1 || h.Retries != 1 {
		t.Fatalf("after an absorbed fault: %+v", h)
	}
	inj.SetStuck(faultfs.ENOSPC)
	if err := lg.Append(add(2), true); err == nil {
		t.Fatal("append on a full disk succeeded")
	}
	lg.Fault("checkpoint spool", errors.New("spool: disk full"))
	if h := lg.Health(); !h.Degraded || h.Degradations != 1 || h.LastError != "spool: disk full" {
		t.Fatalf("after a persistent fault: %+v", h)
	}
	inj.Clear()
	if err := lg.Append(&rec{T: "noop"}, true); err != nil {
		t.Fatal(err)
	}
	h := lg.Health()
	if h.Degraded || h.Recoveries != 1 || h.Bytes != fileSize(t, filepath.Join(cfg.Dir, "log")) {
		t.Fatalf("after recovery: %+v", h)
	}
	if got := strings.Join(events, ","); got != "true 2,false 1" {
		t.Fatalf("Notify calls = %s, want one transition each way", got)
	}

	reg := obs.NewRegistry()
	reg.RegisterCollector(func(e *obs.Emitter) { h.Emit(e, "unit") })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"errors_total", "retries_total", "compactions_total",
		"degradations_total", "recoveries_total", "degraded", "journal_bytes"} {
		if !strings.Contains(buf.String(), "spice_storage_"+fam+`{journal="unit"}`) {
			t.Fatalf("scrape lacks spice_storage_%s{journal=\"unit\"}:\n%s", fam, buf.String())
		}
	}
}

// TestStaleTmpSwept covers the temp files a crash can strand: the
// snapshot's (removed by Open) and any other file an owner writes with
// WriteFile (removed by SweepTmp), while temp files nobody owns stay.
func TestStaleTmpSwept(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	inj.FailOpAt(faultfs.OpRename, 1, faultfs.EIO)
	inj.FailOpAt(faultfs.OpRemove, 1, faultfs.EIO) // the crash: no cleanup either
	err := wal.WriteFile(inj, dir, "job.ckpt", func(rw *trace.RecordWriter) error { return rw.Append([]byte("x")) })
	if err == nil {
		t.Fatal("WriteFile survived a failed rename")
	}
	for _, name := range []string{"snap.tmp", "other.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lg, _, _ := open(t, testConfig(dir, nil))
	lg.Close()
	if got := fmt.Sprint(waltest.TmpFiles(t, dir)); got != "[job.ckpt.tmp other.tmp]" {
		t.Fatalf("after Open: %s, want only the snapshot's temp file gone", got)
	}
	wal.SweepTmp(faultfs.OS, dir, func(final string) bool { return strings.HasSuffix(final, ".ckpt") })
	if got := fmt.Sprint(waltest.TmpFiles(t, dir)); got != "[other.tmp]" {
		t.Fatalf("after SweepTmp: %s", got)
	}
}

// frames builds a record stream file from payloads.
func frames(payloads ...string) []byte {
	var buf bytes.Buffer
	rw := trace.NewRecordWriter(&buf, false)
	for _, p := range payloads {
		rw.Append([]byte(p))
	}
	rw.Flush()
	return buf.Bytes()
}

// FuzzReplay feeds arbitrary bytes as snapshot and log: Open must never
// panic, never apply a sequence twice, and reopening after the torn
// tail was truncated must find the same state and nothing more to drop.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(frames(`{"t":"snap","seq":2}`, `{"t":"add","id":1,"n":2}`),
		frames(`{"t":"add","seq":2,"id":1}`, `{"t":"add","seq":3,"id":2}`, `{"t":"add","seq":3,"id":3}`))
	f.Add(frames(`{"t":"snap","seq":1}`)[:9], frames(`{"t":"add","seq":1,"id":1}`))
	f.Add([]byte("SPJNL1\x02\x00\x00\x00"), frames(`null`, `{"t":"add","id":4}`, `{"seq":"x"}`))
	f.Add(frames(`{"t":"add","seq":9,"id":1}`, `{"t":"snap","seq":4}`), frames(`{"t":"add","seq":7,"id":1}`)[:20])
	f.Fuzz(func(t *testing.T, snap, log []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{"snap": snap, "log": log} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		lg, c, _, err := wal.Open[rec](testConfig(dir, nil), newCounter)
		if err != nil {
			return // foreign, damaged or undecodable files are refused, not guessed at
		}
		for seq, times := range c.seqs {
			if times > 1 {
				t.Fatalf("sequence %d applied %d times", seq, times)
			}
		}
		if err := lg.Append(add(1), false); err != nil {
			t.Fatal(err)
		}
		lg.Close()
		c.Apply(add(1))
		lg, c2, rep, err := wal.Open[rec](testConfig(dir, nil), newCounter)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		lg.Close()
		if rep.TornErr != nil || c2.String() != c.String() {
			t.Fatalf("reopen after truncate not idempotent: torn=%v state %v, want %v", rep.TornErr, c2, c)
		}
	})
}
