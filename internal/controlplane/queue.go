package controlplane

// The campaign queue's durable side: the queue transitions (submit /
// start / done / fail / cancel) journaled in <state>/queue.log and
// compacted into <state>/queue.snapshot — one internal/wal log, which
// owns framing, sequence numbers, repair, compaction and torn-tail
// replay. This file is its fold: the record type, how one record moves
// a campaign through its lifecycle, and how the folded queue is
// re-emitted as a snapshot. The two journals split the durability work
// by blast radius: the queue remembers *which* campaigns were accepted
// and where each stood in its lifecycle; the dist journal remembers the
// per-job progress inside a running campaign.
//
// Durability policy: every record is fsynced before the state change it
// describes is acknowledged. Submissions are the contract with the
// tenant ("202 means your campaign survives anything short of disk
// loss"), and the transition rate is human-scale, so the sync cost is
// irrelevant. Nothing is ever applied in memory that the journal did
// not accept first, and a refused append leaves no trace on disk.

import (
	"encoding/json"
	"time"

	"spice/internal/faultfs"
	"spice/internal/wal"
)

// queue record types.
const (
	qSubmit = "submit" // a campaign was accepted into the queue
	qStart  = "start"  // the campaign was handed to the coordinator
	qDone   = "done"   // the campaign completed
	qFail   = "fail"   // the campaign failed (record carries the error)
	qCancel = "cancel" // the campaign was canceled by the tenant
	qSnap   = "snap"   // snapshot meta record: highest folded seq
	qNoop   = "noop"   // storage probe; carries no state
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

// Apply folds one record into qs. snap and noop records carry no queue
// state, and unknown types from a newer writer are tolerated.
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
