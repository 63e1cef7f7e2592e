package controlplane

// The read-only import of <state>/queue.log (and queue.snapshot), the
// campaign queue an older control plane journaled: its record type and
// fold. That server fsynced a submit here before handing the campaign to
// the coordinator, so a crash between the two left campaigns only this
// log holds, and it recorded cancels and failures only here. Nothing
// writes the log any more; New folds it once and merges it into the
// coordinator's replay.

import (
	"encoding/json"
	"fmt"
	"time"

	"spice/internal/faultfs"
	"spice/internal/wal"
)

// queue record types.
const (
	qSubmit = "submit" // a campaign was accepted into the queue
	qStart  = "start"  // the campaign was handed to the coordinator (old logs only)
	qDone   = "done"   // the campaign completed
	qFail   = "fail"   // the campaign failed (record carries the error)
	qCancel = "cancel" // the campaign was canceled by the tenant
	qSnap   = "snap"   // snapshot meta record: highest folded seq
)

// qrec is one queue journal record.
type qrec struct {
	T string `json:"t"`
	wal.Stamp
	ID       string          `json:"id,omitempty"`
	Tenant   string          `json:"tenant,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Name     string          `json:"name,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"` // submit only
	Err      string          `json:"err,omitempty"`  // fail only
	At       time.Time       `json:"at,omitzero"`
}

// queueReplay is one campaign's recovered lifecycle (last record wins).
type queueReplay struct {
	rec   qrec // the submit record (identity + spec)
	state State
	err   string
}

// queueConfig places the queue's log under dir.
func queueConfig(fsys faultfs.FS, dir string) wal.Config {
	return wal.Config{FS: fsys, Dir: dir, LogName: "queue.log", SnapName: "queue.snapshot"}
}

// importQueue folds the queue.snapshot + queue.log pair under dir,
// read-only; a directory without them folds to an empty queue.
func importQueue(fsys faultfs.FS, dir string) (*queueScan, error) {
	qs := newQueueScan()
	if _, err := wal.Scan[qrec](queueConfig(fsys, dir), qs); err != nil {
		return nil, fmt.Errorf("controlplane: %w", err)
	}
	return qs, nil
}

// queueScan is the queue's fold: the campaigns recovered from snapshot
// + log, in submission order.
type queueScan struct {
	order []*queueReplay
	byID  map[string]*queueReplay
}

func newQueueScan() *queueScan {
	return &queueScan{byID: make(map[string]*queueReplay)}
}

// queueStates maps each lifecycle record type to the state it moves a
// campaign into (last record wins); Snapshot inverts it.
var queueStates = map[string]State{
	qStart: StateRunning, qDone: StateDone, qFail: StateFailed, qCancel: StateCanceled,
}

// Apply folds one record into qs. snap and noop (storage probe) records
// carry no queue state, and unknown types are tolerated.
func (qs *queueScan) Apply(r *qrec) {
	if r.T == qSubmit && qs.byID[r.ID] == nil {
		qr := &queueReplay{rec: *r, state: StateQueued}
		qs.byID[r.ID] = qr
		qs.order = append(qs.order, qr)
	}
	if st, ok := queueStates[r.T]; ok {
		if qr := qs.byID[r.ID]; qr != nil {
			qr.state, qr.err = st, r.Err
		}
	}
}

// Snapshot emits the folded queue state: a qSnap meta record, then per
// campaign (in submission order) its submit record and — if it has left
// the queued state — one closing state record.
func (qs *queueScan) Snapshot(emit func(*qrec)) {
	emit(&qrec{T: qSnap})
	for _, qr := range qs.order {
		sub := qr.rec
		sub.Seq = 0
		emit(&sub)
		for t, st := range queueStates {
			if st == qr.state {
				emit(&qrec{T: t, ID: sub.ID, Tenant: sub.Tenant, Err: qr.err})
			}
		}
	}
}
