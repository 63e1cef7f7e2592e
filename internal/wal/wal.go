// Package wal is the one crash-safe write-ahead log in the repo: the
// dist job journal is a wal.Log plus a Fold, and the control plane reads
// an older server's campaign queue through Scan and a Fold of its own. A
// log is two files in trace's CRC record framing, one JSON record per
// frame: an append-only stream of sequence-stamped records, and a
// snapshot — the compacted prefix, opened by a meta record carrying the
// highest sequence it folded. DESIGN.md §13 has the protocol. Calls on
// one Log must be serialized by the owner (the coordinator holds its
// mutex around every call).
package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spice/internal/backoff"
	"spice/internal/faultfs"
	"spice/internal/obs"
	"spice/internal/trace"
)

// Stamp is the sequence number every record carries; owners embed it in
// their record type where the "seq" key belongs in the JSON.
type Stamp struct {
	Seq uint64 `json:"seq,omitempty"`
}

func (s *Stamp) stamp() *Stamp { return s }

// Record constrains a log's record type R to structs that embed Stamp,
// so the log reads and writes the sequence through the type instead of
// decoding a payload twice.
type Record[R any] interface {
	*R
	stamp() *Stamp
}

// Fold is the owner's half of a log: replay applies every record to it
// exactly once, and compaction replays into a fresh one and asks it for
// the snapshot.
type Fold[R any] interface {
	// Apply folds one record into the state, ignoring types it does not
	// know (a newer writer's, a storage probe).
	Apply(r *R)
	// Snapshot emits the minimal record stream that replays to the same
	// state: first the owner's meta record — one Apply ignores; the log
	// stamps it with the highest sequence folded — then unstamped records.
	Snapshot(emit func(r *R))
}

// Config places and tunes one log.
type Config struct {
	FS                faultfs.FS // nil = the real filesystem
	Dir               string
	LogName, SnapName string
	CompactBytes      int64 // compact once the log file passes this size; 0 disables
	Retries           int   // repair-and-retry attempts before an append error surfaces
	// Notify, if set, is called on each transition into (true) and out of
	// (false) the degraded state, with fields for the owner's event log.
	Notify func(degraded bool, fields map[string]any)
}

// Replay describes what Scan or Open found on disk.
type Replay struct {
	CleanLen  int64  // length of the log's clean record prefix
	TornBytes int64  // bytes after it (dropped by Open)
	TornErr   error  // nil, or wraps trace.ErrTruncated / trace.ErrFormat
	Seq       uint64 // highest sequence applied, snapshot and log
}

// Health is a log's storage health. Degraded is set by a failed append,
// explicit Compact or Fault and cleared by the next synced append that
// succeeds; what to refuse meanwhile and when to probe is owner policy.
type Health struct {
	Degraded     bool
	LastError    string
	Degradations int   // transitions into the degraded state
	Recoveries   int   // transitions back to healthy
	Compactions  int   // compactions completed
	Errors       int   // failed storage operations (each attempt counts)
	Retries      int   // append attempts retried after a fault
	Bytes        int64 // clean length of the log file
}

// Emit renders h as the spice_storage_* families, labeled per journal.
func (h Health) Emit(e *obs.Emitter, journal string) {
	jl := obs.Label{Name: "journal", Value: journal}
	degraded := 0.0
	if h.Degraded {
		degraded = 1
	}
	e.Counter("spice_storage_errors_total", "Failed journal/spool operations.", float64(h.Errors), jl)
	e.Counter("spice_storage_retries_total", "Journal appends retried after a transient fault.", float64(h.Retries), jl)
	e.Counter("spice_storage_compactions_total", "Journal compactions completed.", float64(h.Compactions), jl)
	e.Counter("spice_storage_degradations_total", "Transitions into the degraded storage state.", float64(h.Degradations), jl)
	e.Counter("spice_storage_recoveries_total", "Transitions back to healthy storage.", float64(h.Recoveries), jl)
	e.Gauge("spice_storage_degraded", "1 while the journal is refusing durability promises.", degraded, jl)
	e.Gauge("spice_storage_journal_bytes", "Current clean length of the journal log.", float64(h.Bytes), jl)
}

// Log is the open write side.
type Log[R any, P Record[R]] struct {
	cfg     Config
	newFold func() Fold[R]
	f       faultfs.File
	rw      *trace.RecordWriter

	goodLen        int64  // clean length of the log file (incl. magic)
	seq            uint64 // last sequence successfully appended
	pendingRepair  bool   // bytes past goodLen that no truncate has removed yet
	compactRetryAt int64  // after a failed compaction, wait for this size

	h             Health
	degradedSince time.Time
}

// Scan folds the snapshot and then the log under cfg into f, read-only.
// A stamped record at or below the highest sequence already applied is
// skipped, so the pair replays every transition exactly once even when a
// compaction died between renaming the snapshot and truncating the log
// it folded. (Records older than sequence numbers carry none and always
// apply.)
func Scan[R any, P Record[R]](cfg Config, f Fold[R]) (Replay, error) {
	var rep Replay
	fsys := faultfs.Or(cfg.FS)
	snapPath := filepath.Join(cfg.Dir, cfg.SnapName)
	snap, err := trace.ScanFileFS(fsys, snapPath)
	if err != nil {
		return rep, fmt.Errorf("wal: %s: %w", snapPath, err)
	}
	if snap.TailErr != nil {
		// The snapshot is fsynced before it is renamed into place, so a
		// torn one means bit rot or outside interference — refuse to
		// guess at partial state.
		return rep, fmt.Errorf("wal: %s: damaged snapshot: %w", snapPath, snap.TailErr)
	}
	logPath := filepath.Join(cfg.Dir, cfg.LogName)
	log, err := trace.ScanFileFS(fsys, logPath)
	if err != nil {
		// Foreign magic (or an unreadable file): refuse to touch it.
		return rep, fmt.Errorf("wal: %s: %w", logPath, err)
	}
	rep.CleanLen, rep.TornBytes, rep.TornErr = log.CleanLen, log.TornBytes, log.TailErr
	for _, raw := range append(snap.Records, log.Records...) {
		r := new(R)
		if err := json.Unmarshal(raw, r); err != nil {
			// The CRC held, so this is no crash artifact: wrong directory
			// or a foreign writer.
			return rep, fmt.Errorf("wal: %s: undecodable record (CRC valid): %w", cfg.Dir, err)
		}
		if seq := P(r).stamp().Seq; seq != 0 {
			if seq <= rep.Seq {
				continue
			}
			rep.Seq = seq
		}
		f.Apply(r)
	}
	return rep, nil
}

// Open opens (creating if needed) the log under cfg: it removes a stale
// snapshot temp file, replays into a fresh fold (returned), and drops a
// torn log tail so the append point is a record boundary.
func Open[R any, P Record[R], F Fold[R]](cfg Config, newFold func() F) (*Log[R, P], F, Replay, error) {
	cfg.FS = faultfs.Or(cfg.FS)
	f := newFold()
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, f, Replay{}, fmt.Errorf("wal: state dir: %w", err)
	}
	SweepTmp(cfg.FS, cfg.Dir, func(final string) bool { return final == cfg.SnapName })
	rep, err := Scan[R, P](cfg, f)
	if err != nil {
		return nil, f, rep, err
	}
	path := filepath.Join(cfg.Dir, cfg.LogName)
	if rep.TornErr != nil {
		if err := cfg.FS.Truncate(path, rep.CleanLen); err != nil {
			return nil, f, rep, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	file, err := cfg.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, f, rep, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	return &Log[R, P]{
		cfg:     cfg,
		newFold: func() Fold[R] { return newFold() },
		f:       file,
		rw:      trace.NewRecordWriter(file, rep.CleanLen > 0),
		goodLen: rep.CleanLen,
		seq:     rep.Seq,
	}, f, rep, nil
}

// repairBackoff paces append retries: 2ms doubling to a 50ms cap — the
// shared policy the worker reconnect loop and the control-plane client
// use, minus the jitter (appends are serialized under the owner's mutex,
// so there is no herd to spread). Short on purpose: that mutex is held,
// and a transient fault (one full stripe, one interrupted syscall)
// clears quickly or not at all.
var repairBackoff = backoff.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}

// Append stamps r with the next sequence, frames, writes and flushes it;
// sync also forces it to stable storage. Owners apply and acknowledge a
// state change only after Append returned nil. A failed attempt is
// repaired and retried up to cfg.Retries times; after the last one the
// log is truncated once more before the error is returned, so a refused
// record leaves no trace for a restart to replay — only if that
// truncate fails too is the repair left to the next append.
func (l *Log[R, P]) Append(r P, sync bool) error {
	r.stamp().Seq = l.seq + 1
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		if err = l.tryAppend(payload, sync); err == nil {
			l.seq++
			if sync { // a flushed write proves only that the page cache is up
				l.recovered()
			}
			l.maybeCompact()
			return nil
		}
		l.pendingRepair = true
		if attempt >= l.cfg.Retries {
			_ = l.repair()         // best effort: pendingRepair remembers a failure
			l.Fault("append", err) // counts this last attempt's error too
			return err
		}
		l.h.Errors++
		l.h.Retries++
		time.Sleep(repairBackoff.Exp(attempt + 1))
	}
}

// repair truncates away whatever a failed append left past goodLen and
// resets the buffered writer, so a partial record never shadows the
// records appended after it.
func (l *Log[R, P]) repair() error {
	if !l.pendingRepair {
		return nil
	}
	if err := l.f.Truncate(l.goodLen); err != nil {
		return err
	}
	l.rw.Reset(l.f, l.goodLen > 0)
	l.pendingRepair = false
	return nil
}

func (l *Log[R, P]) tryAppend(payload []byte, sync bool) error {
	if err := l.repair(); err != nil {
		return err
	}
	n := trace.FramedLen(len(payload))
	if l.goodLen == 0 {
		n += trace.MagicLen
	}
	if err := l.rw.Append(payload); err != nil {
		return err
	}
	if err := l.rw.Flush(); err != nil {
		return err
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.goodLen += n
	return nil
}

// maybeCompact compacts when the log has outgrown its threshold. A
// failed compaction backs off until the log doubles again, so a sick
// disk is not hammered with snapshot rewrites on every append.
func (l *Log[R, P]) maybeCompact() {
	if l.cfg.CompactBytes <= 0 || l.goodLen < l.cfg.CompactBytes || l.goodLen < l.compactRetryAt {
		return
	}
	l.compactRetryAt = 0
	if l.compact() != nil {
		l.h.Errors++
		l.compactRetryAt = l.goodLen * 2
	}
}

// Compact compacts now, whatever the size — the explicit operator
// trigger, whose failure (unlike a size-triggered one) degrades the log.
func (l *Log[R, P]) Compact() error {
	err := l.compact()
	if err != nil {
		l.Fault("compact", err)
	}
	return err
}

// compact folds snapshot + log into a fresh snapshot and truncates the
// log. The state is re-scanned from disk, so the log never needs the
// owner to describe its live memory correctly. Any step may fail (or
// the process die) and replay stays exact: before the snapshot's rename
// the old pair is untouched; after it, the log records it folded are
// skipped by sequence number.
func (l *Log[R, P]) compact() error {
	if err := l.repair(); err != nil {
		return err
	}
	fold := l.newFold()
	rep, err := Scan[R, P](l.cfg, fold)
	if err != nil {
		return err
	}
	err = WriteFile(l.cfg.FS, l.cfg.Dir, l.cfg.SnapName, func(rw *trace.RecordWriter) (err error) {
		meta := true
		fold.Snapshot(func(r *R) {
			if meta {
				P(r).stamp().Seq = rep.Seq
				meta = false
			}
			if err != nil {
				return
			}
			var payload []byte
			if payload, err = json.Marshal(r); err == nil {
				err = rw.Append(payload)
			}
		})
		return err
	})
	if err != nil {
		return err
	}
	// The snapshot is durable and supersedes the log by sequence number;
	// truncating the log is now safe (and, if it fails, merely deferred —
	// replay skips the superseded records either way).
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.rw.Reset(l.f, false)
	l.goodLen = 0
	l.h.Compactions++
	return nil
}

// Fault counts a storage error and turns the log degraded. Owners call
// it for storage they keep beside the log (the dist checkpoint spool).
func (l *Log[R, P]) Fault(op string, err error) {
	l.h.Errors++
	l.h.LastError = err.Error()
	if l.h.Degraded {
		return
	}
	l.h.Degraded = true
	l.h.Degradations++
	l.degradedSince = time.Now()
	if l.cfg.Notify != nil {
		l.cfg.Notify(true, map[string]any{"op": op, "error": err.Error()})
	}
}

func (l *Log[R, P]) recovered() {
	if !l.h.Degraded {
		return
	}
	l.h.Degraded = false
	l.h.Recoveries++
	if l.cfg.Notify != nil {
		l.cfg.Notify(false, map[string]any{"degraded_for": time.Since(l.degradedSince).String()})
	}
}

// Health returns the current storage health.
func (l *Log[R, P]) Health() Health {
	h := l.h
	h.Bytes = l.goodLen
	return h
}

// Close flushes and closes the log file.
func (l *Log[R, P]) Close() error {
	if err := l.rw.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// WriteFile atomically replaces dir/name with the record stream write
// produces: written to name.tmp, flushed, fsynced, renamed over name,
// parent directory fsynced (rename alone is not durable across power
// loss: the directory's entry table must hit the disk too). A failure
// removes the temp file; a crash leaves it for SweepTmp.
func WriteFile(fsys faultfs.FS, dir, name string, write func(*trace.RecordWriter) error) (err error) {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			_ = fsys.Remove(tmp) // best effort: SweepTmp gets what this misses
		}
	}()
	rw := trace.NewRecordWriter(f, false)
	if err = write(rw); err != nil {
		return err
	}
	if err = rw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, final); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// SweepTmp removes what a WriteFile that died before its rename left in
// dir: each <final>.tmp with owns(<final>). Best effort — a leftover
// temp file costs disk space, never correctness.
func SweepTmp(fsys faultfs.FS, dir string, owns func(final string) bool) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if final, ok := strings.CutSuffix(e.Name(), ".tmp"); ok && owns(final) {
			_ = fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
