package dist

import "spice/internal/wal"

// TailCondition classifies the journal tail found at the last recovery.
// A plain enum plus a message string serializes and compares cleanly
// (Stats is a value snapshot).
type TailCondition int

const (
	// TailClean: the journal ended on a record boundary (or there was no
	// journal). The zero value, so a fresh Stats means "clean".
	TailClean TailCondition = iota
	// TailTorn: the tail was cut mid-record — the signature of a crash
	// during an append. The torn bytes were dropped.
	TailTorn
	// TailCorrupt: a record failed its checksum or framing — bit rot or
	// outside interference, not a crash.
	TailCorrupt
)

func (c TailCondition) String() string {
	switch c {
	case TailTorn:
		return "torn"
	case TailCorrupt:
		return "corrupt"
	default:
		return "clean"
	}
}

// Stats aggregates the coordinator's scheduling counters, in the same
// value-struct style as neighbor.Stats: a snapshot you can print or
// assert on, not a live view.
type Stats struct {
	Jobs          int // total jobs in the campaign
	Assignments   int // leases granted (first attempts + retries)
	Retries       int // reassignments after failure, expiry or disconnect
	Resumes       int // assignments that carried a checkpoint to resume from
	LeaseExpiries int // leases revoked for missed heartbeats
	Disconnects   int // leases revoked because the worker connection died
	Failures      int // explicit fail messages from workers
	Checkpoints   int // progress messages that carried a checkpoint
	BytesIn       int64
	BytesOut      int64

	// Crash-safety counters. All are live events observed by *this*
	// coordinator process; the journal replay restores job state but
	// never inflates the live counters, so after a restart
	// Resumes/Adoptions measure exactly the recovery work this process
	// did.
	Restarts                int   // journal opens that replayed prior state
	ReplayedRecords         int   // journal records replayed at open
	TruncatedTailBytes      int64 // torn journal tail dropped at open
	DuplicateResultsDropped int   // retransmitted result/fail lines acked and dropped
	Adoptions               int   // in-flight jobs re-leased to their live worker after restart/revocation
	// TornTail classifies the journal tail dropped at the last recovery
	// (TailClean if none); TornTailMsg carries the detail text.
	TornTail    TailCondition
	TornTailMsg string

	// Durable-storage health, copied from the journal's wal.Health (every
	// append, retry and compaction runs under the coordinator mutex).
	Compactions         int    // journal compactions completed (log folded into snapshot)
	StorageErrors       int    // failed journal/spool operations (each attempt counts)
	StorageRetries      int    // append attempts retried after a transient fault
	StorageDegradations int    // transitions into the degraded storage state
	StorageRecoveries   int    // transitions back to healthy storage
	StorageDegraded     bool   // currently refusing durability promises
	JournalBytes        int64  // current clean length of journal.log
	LastStorageErr      string // most recent storage error text, if any

	// Federation-resilience counters: straggler hedging and per-site
	// circuit breakers (the per-site breakdown is in SiteStats).
	StragglersDetected   int // leases flagged as stragglers by the rate trigger
	SpeculationsLaunched int // hedge leases granted on a second site
	SpeculationsWon      int // jobs whose accepted result came from a hedge lease
	SpeculationsWasted   int // concurrent leases dropped when the other attempt won
	BreakerTrips         int // site breakers opened (quarantine events)
	BreakerProbes        int // half-open probe jobs dispatched
	BreakerCloses        int // breakers closed again by a successful result

	// ParkedPolls is a gauge: work polls held unanswered right now because
	// nothing was runnable when they arrived — the idle workers.
	ParkedPolls int

	// Overload-protection counters and gauges (the spice_overload_*
	// metric family). The counter is cumulative; the two gauges are
	// sampled when the snapshot was taken.
	RequestsShed     int // msgNext polls answered with a shed msgWait over the in-flight cap
	InflightRequests int // gauge: requests in processing (a parked poll is not)
	ConnectedWorkers int // gauge: live worker connections

	// Wire-protocol counters (the spice_wire_* metric family).
	WireV1Conns         int   // connections granted v1: every accepted connection
	DeltasFolded        int   // delta checkpoints folded into complete images
	DeltaBaseMisses     int   // deltas rejected for a base this coordinator no longer holds
	CheckpointsRejected int   // checkpoint payloads that are no decodable checkpoint (answered NeedFull)
	WorkPolls           int64 // msgNext requests received (shed or served)
}

// setStorage copies the journal's health into the Storage* fields, and
// storage reads it back for the shared spice_storage_* emitter.
func (s *Stats) setStorage(h wal.Health) {
	s.Compactions = h.Compactions
	s.StorageErrors = h.Errors
	s.StorageRetries = h.Retries
	s.StorageDegradations = h.Degradations
	s.StorageRecoveries = h.Recoveries
	s.StorageDegraded = h.Degraded
	s.JournalBytes = h.Bytes
	s.LastStorageErr = h.LastError
}

func (s Stats) storage() wal.Health {
	return wal.Health{
		Degraded:     s.StorageDegraded,
		LastError:    s.LastStorageErr,
		Degradations: s.StorageDegradations,
		Recoveries:   s.StorageRecoveries,
		Compactions:  s.Compactions,
		Errors:       s.StorageErrors,
		Retries:      s.StorageRetries,
		Bytes:        s.JournalBytes,
	}
}

// Snapshot is the unified stats surface: one coherent point-in-time
// capture of the campaign counters and the per-site health table. Every
// consumer — the statsfmt table renderer, the obs /metrics collector,
// test assertions — reads this one struct, so the printed, scraped and
// asserted views cannot drift. A job's history is the event log's.
type Snapshot struct {
	Stats Stats
	Sites map[string]SiteStats
}
