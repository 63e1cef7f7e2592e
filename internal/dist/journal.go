package dist

// The coordinator's durable state: a write-ahead journal of job-state
// transitions plus a checkpoint spool, both living under one state
// directory. Between them a campaign survives the death of *any*
// process, coordinator included — the paper's §V lessons (a security
// quarantine took a site's middleware down for weeks mid-campaign) but
// applied to the scheduler itself instead of a worker site.
//
// Layout:
//
//	<state>/journal.log      append-only record stream: campaign / lease /
//	<state>/snapshot         ckpt / done / fail / cancel transitions, and
//	                         their compacted prefix — together one
//	                         internal/wal log, which owns framing, sequence
//	                         numbers, repair, compaction and torn-tail replay
//	<state>/spool/<job>.ckpt latest streamed checkpoint per in-flight
//	                         job, always a complete CRC-framed image
//
// This file is the log's fold — the record type, how one record changes
// the recovered job tables, how those tables are re-emitted as a
// snapshot — plus the spool, which shares the log's atomic file write.
//
// Durability policy: the records of a campaign's acceptance, cancel and
// failure are fsynced before they are acted on, and a `done` record
// (which carries the full work log — the campaign's irreplaceable
// output) before the worker's result is acknowledged; everything else is
// flushed but not synced, because every other transition is
// reconstructible from retries. The control plane rebuilds its
// campaigns from Replayed, and reads a result finished before the
// restart from ReplayedResult: this is the only durable record of them.
import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spice/internal/campaign"
	"spice/internal/faultfs"
	"spice/internal/trace"
	"spice/internal/wal"
)

// journal record types, in the order a job moves through them.
const (
	jCampaign = "campaign" // a campaign spec was installed
	jLease    = "lease"    // a job was leased (or adopted) by a worker
	jCkpt     = "ckpt"     // a checkpoint was spooled for a job
	jDone     = "done"     // a job finished; record carries the log
	jFail     = "fail"     // a worker reported failure (job requeued); without a job, the campaign failed
	jCancel   = "cancel"   // the campaign was canceled
	jSnap     = "snap"     // snapshot meta record: highest folded seq
	jNoop     = "noop"     // storage probe; carries no state
)

// jrec is one journal record. The JSON payload rides inside the CRC'd
// trace record framing, so a torn or corrupted tail never parses.
type jrec struct {
	T string `json:"t"`
	wal.Stamp
	Camp    string          `json:"camp,omitempty"`    // campaign key (SpecKey) the record belongs to
	Spec    json.RawMessage `json:"spec,omitempty"`    // campaign: spec JSON
	Tag     *CampaignTag    `json:"tag,omitempty"`     // campaign: submission tag
	At      time.Time       `json:"at,omitzero"`       // campaign: submission time
	Job     string          `json:"job,omitempty"`     // lease/ckpt/done/fail
	Worker  string          `json:"worker,omitempty"`  // lease
	Site    string          `json:"site,omitempty"`    // lease: worker's site identity
	Attempt int             `json:"attempt,omitempty"` // lease/ckpt/fail
	Resumed bool            `json:"resumed,omitempty"` // lease: assignment carried a checkpoint
	Hedge   bool            `json:"hedge,omitempty"`   // lease: speculative second lease on a straggling job
	Log     *trace.WorkLog  `json:"log,omitempty"`     // done
	Err     string          `json:"err,omitempty"`     // fail: reason
	N       int             `json:"n,omitempty"`       // fail (snapshot): condensed repeat count
}

// journal is the open log plus the checkpoint spool beside it.
type journal struct {
	log *wal.Log[jrec, *jrec]
	fs  faultfs.FS
	dir string
}

// journalReplay is the journal's fold: everything recovered from
// snapshot + log.
type journalReplay struct {
	records int // state-carrying records applied
	// campaigns keys replayed state by the campaign key (SpecKey of the
	// tag + spec JSON), so a restarted coordinator resumes whichever
	// campaigns it re-runs in whatever order — including campaigns from
	// several tenants interleaved in one journal.
	campaigns map[string]*replayCampaign
	cur       *replayCampaign // most recent jCampaign, for legacy records without a Camp key
}

func newJournalReplay() *journalReplay {
	return &journalReplay{campaigns: make(map[string]*replayCampaign)}
}

// replayCampaign is the recovered job table of one campaign.
type replayCampaign struct {
	specJSON json.RawMessage // campaign spec, kept for re-serialization
	tag      *CampaignTag
	at       time.Time
	canceled bool
	err      string // why the campaign failed
	done     map[string]*trace.WorkLog
	attempts map[string]int // highest lease attempt per job
	applied  bool           // replayed state consumed by a Run already
	// Only compaction reads these: it re-emits them unchanged.
	workers map[string][]string // lease history per job, in order
	fails   map[string]int      // fail records per job
}

func newReplayCampaign() *replayCampaign {
	return &replayCampaign{
		done:     make(map[string]*trace.WorkLog),
		attempts: make(map[string]int),
		workers:  make(map[string][]string),
		fails:    make(map[string]int),
	}
}

// journalConfig places the journal's log under dir.
func journalConfig(fsys faultfs.FS, dir string) wal.Config {
	return wal.Config{FS: fsys, Dir: dir, LogName: "journal.log", SnapName: "snapshot"}
}

// openJournal opens (creating if needed) the journal under cfg.Dir and
// returns it with the replayed state.
func openJournal(cfg wal.Config) (*journal, *journalReplay, wal.Replay, error) {
	j := &journal{fs: faultfs.Or(cfg.FS), dir: cfg.Dir}
	if err := j.fs.MkdirAll(j.spoolDir(), 0o755); err != nil {
		return nil, nil, wal.Replay{}, fmt.Errorf("dist: state dir: %w", err)
	}
	wal.SweepTmp(j.fs, j.spoolDir(), func(final string) bool { return strings.HasSuffix(final, ".ckpt") })
	lg, rep, info, err := wal.Open[jrec](cfg, newJournalReplay)
	if err != nil {
		return nil, nil, info, fmt.Errorf("dist: %w", err)
	}
	j.log = lg
	return j, rep, info, nil
}

// Apply folds one record into rep. A record without a Camp key is a
// legacy one, written before keys were stamped: it belongs to the most
// recent jCampaign.
func (rep *journalReplay) Apply(r *jrec) {
	c := rep.cur
	if r.Camp != "" {
		c = rep.campaigns[r.Camp]
	}
	if c == nil && r.T == jCancel && r.Camp != "" {
		// A cancel of a campaign only an older control plane's queue.log
		// holds: keep the mark for Replayed.
		c = newReplayCampaign()
		rep.campaigns[r.Camp] = c
	}
	if c == nil && r.T != jCampaign {
		return // a record for a campaign this journal never installed
	}
	switch r.T {
	case jCampaign:
		key := r.Camp
		if key == "" {
			var tag CampaignTag
			if r.Tag != nil {
				tag = *r.Tag
			}
			key = campaignKeyTagged(tag, r.Spec)
		}
		if rep.campaigns[key] == nil {
			rep.campaigns[key] = newReplayCampaign()
		}
		c = rep.campaigns[key]
		if len(r.Spec) > 0 {
			c.specJSON = r.Spec
		}
		if r.Tag != nil {
			c.tag = r.Tag
		}
		if !r.At.IsZero() {
			c.at = r.At
		}
		rep.cur = c
		rep.records++
	case jLease:
		// A speculative (hedged) lease replays like any other: the
		// highest attempt wins the idempotency key and the full lease
		// history is preserved, so an in-flight hedge pair collapses to
		// one pending job that any post-restart result — from either
		// attempt, both bit-identical — can complete. Site health is
		// deliberately NOT replayed: breakers and EWMAs restart fresh,
		// because pre-crash weather says little about post-crash sites.
		if r.Attempt > c.attempts[r.Job] {
			c.attempts[r.Job] = r.Attempt
		}
		c.workers[r.Job] = append(c.workers[r.Job], r.Worker)
		rep.records++
	case jCkpt:
		// The spool file is the source of truth for checkpoint data;
		// the record only documents the transition.
		rep.records++
	case jDone:
		if r.Log == nil {
			return
		}
		c.done[r.Job] = r.Log
		rep.records++
	case jFail:
		if r.Job == "" {
			c.err = r.Err
		} else {
			c.fails[r.Job] += max(r.N, 1) // N is a snapshot's condensed repeat count
		}
		rep.records++
	case jCancel:
		c.canceled = true
		rep.records++
	case jSnap, jNoop:
		// snap carries only its sequence, which is the log's business;
		// noop is a storage probe.
	default:
		// Unknown record types from a newer writer are tolerated.
	}
}

// Snapshot emits rep as a compacted record stream: the jSnap meta
// record, then a minimal record sequence that replays to exactly rep —
// one campaign record each, the condensed lease history, done logs, fail
// counts, and the campaign's cancel or failure.
func (rep *journalReplay) Snapshot(emit func(*jrec)) {
	emit(&jrec{T: jSnap})
	keys := make([]string, 0, len(rep.campaigns))
	for k := range rep.campaigns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		c := rep.campaigns[key]
		emit(&jrec{T: jCampaign, Camp: key, Spec: c.specJSON, Tag: c.tag, At: c.at})
		jobs := make(map[string]bool)
		for id := range c.done {
			jobs[id] = true
		}
		for id := range c.attempts {
			jobs[id] = true
		}
		for id := range c.workers {
			jobs[id] = true
		}
		for id := range c.fails {
			jobs[id] = true
		}
		ids := make([]string, 0, len(jobs))
		for id := range jobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			hist := c.workers[id]
			for i, w := range hist {
				attempt := 0
				if i == len(hist)-1 {
					attempt = c.attempts[id]
				}
				emit(&jrec{T: jLease, Camp: key, Job: id, Worker: w, Attempt: attempt})
			}
			if len(hist) == 0 && c.attempts[id] > 0 {
				emit(&jrec{T: jLease, Camp: key, Job: id, Attempt: c.attempts[id]})
			}
			if wl, ok := c.done[id]; ok {
				emit(&jrec{T: jDone, Camp: key, Job: id, Log: wl})
			}
			if n := c.fails[id]; n > 0 {
				emit(&jrec{T: jFail, Camp: key, Job: id, N: n})
			}
		}
		if c.canceled {
			emit(&jrec{T: jCancel, Camp: key})
		}
		if c.err != "" {
			emit(&jrec{T: jFail, Camp: key, Err: c.err})
		}
	}
}

// ReplayedCampaign is one campaign as the coordinator's journal held it
// at construction — the read-only view the control plane rebuilds its
// campaigns from.
type ReplayedCampaign struct {
	Key  string
	Tag  CampaignTag
	Spec json.RawMessage // nil when the journal holds only a cancel for Key
	// At is the submission time the install recorded; zero in records
	// written before installs carried one.
	At       time.Time
	Done     int // jobs whose result is durable
	Canceled bool
	Err      string // why the campaign failed; "" unless it did
}

// Replayed returns the campaigns the journal held when the coordinator
// was built, in key order (none without a StateDir).
func (co *Coordinator) Replayed() []ReplayedCampaign {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]ReplayedCampaign, 0, len(co.replay.campaigns))
	for key, c := range co.replay.campaigns {
		rc := ReplayedCampaign{Key: key, Spec: c.specJSON, At: c.at, Done: len(c.done), Canceled: c.canceled, Err: c.err}
		if c.tag != nil {
			rc.Tag = *c.tag
		}
		out = append(out, rc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ReplayedResult reads the merged logs of the campaign with the given
// key from the journal replay the coordinator was built with, and writes,
// installs, counts and emits nothing. Without the campaign's spec and
// every job's done record in that replay it returns an error.
func (co *Coordinator) ReplayedResult(key string) (map[campaign.Combo][]*trace.WorkLog, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.replay.campaigns[key]
	var spec campaign.Spec
	if c == nil || json.Unmarshal(c.specJSON, &spec) != nil {
		return nil, fmt.Errorf("dist: journal replay holds no campaign spec for %s", key)
	}
	tasks := spec.Tasks()
	logs := make([]*trace.WorkLog, len(tasks))
	for i, t := range tasks {
		if logs[i] = c.done[jobID(key, t)]; logs[i] == nil {
			return nil, fmt.Errorf("dist: journal replay holds no result for job %s", jobID(key, t))
		}
	}
	return campaign.Collate(tasks, logs), nil
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

func (j *journal) spoolDir() string {
	return filepath.Join(j.dir, "spool")
}

func (j *journal) spoolPath(jobID string) string {
	return filepath.Join(j.spoolDir(), jobID+".ckpt")
}

// spoolCheckpoint atomically replaces the job's spooled checkpoint, so
// the spool always holds a complete one — at worst one generation stale,
// never torn, and durable across power loss.
//
// ckpt is always a COMPLETE image: the coordinator folds wire deltas
// against the lease's base before calling here (fold-before-spool), so
// journal replay and hedged re-execution never need a delta chain — a
// spool file alone is a valid resume image regardless of which wire
// version produced it.
func (j *journal) spoolCheckpoint(jobID string, ckpt []byte) error {
	return wal.WriteFile(j.fs, j.spoolDir(), jobID+".ckpt", func(rw *trace.RecordWriter) error {
		return rw.Append(ckpt)
	})
}

// loadSpool returns the job's spooled checkpoint, or nil if there is
// none (or the file is unreadable/torn — the job then restarts from
// its last recorded state instead, losing progress but not safety).
func (j *journal) loadSpool(jobID string) []byte {
	scan, err := trace.ScanFileFS(j.fs, j.spoolPath(jobID))
	if err != nil || scan.TailErr != nil || len(scan.Records) == 0 {
		return nil
	}
	return scan.Records[len(scan.Records)-1]
}

func (j *journal) removeSpool(jobID string) {
	_ = j.fs.Remove(j.spoolPath(jobID))
}
