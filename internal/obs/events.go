package obs

// Structured JSON-lines event log. Where metrics answer "how many",
// events answer "in what order": every scheduling decision the dist
// runtime makes (lease granted, breaker opened, speculation settled)
// becomes one JSON object on a stream, stamped with a monotonic
// sequence number and scoped by the same (campaign, job, attempt, site,
// worker) keys the journal uses — so a chaos run's event log can be
// cross-checked line-by-line against the final Stats snapshot.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one structured log record. Zero-valued scope fields are
// omitted from the JSON, so unscoped events stay small.
type Event struct {
	Seq      int64          `json:"seq"`
	Time     time.Time      `json:"time"`
	Name     string         `json:"event"`
	Campaign string         `json:"campaign,omitempty"`
	Job      string         `json:"job,omitempty"`
	Attempt  int            `json:"attempt,omitempty"`
	Site     string         `json:"site,omitempty"`
	Worker   string         `json:"worker,omitempty"`
	Fields   map[string]any `json:"fields,omitempty"`
}

// EventLog writes events as JSON lines and keeps a bounded ring of
// recent events plus per-name counts for test cross-checks. A nil
// *EventLog is valid: Emit and Scope become no-ops, so instrumented
// code never needs a nil guard at each call site.
type EventLog struct {
	mu     sync.Mutex
	w      io.Writer // may be nil (ring + counts only)
	seq    int64
	ring   []Event
	next   int // ring write cursor
	filled bool
	counts map[string]int64

	scope  Event     // inherited by Emit via Scope chains
	parent *EventLog // non-nil on scoped views; root holds the state
}

// NewEventLog builds a log writing JSONL to w (nil for ring-only) and
// retaining the last ringSize events for /debug/events and tests.
func NewEventLog(w io.Writer, ringSize int) *EventLog {
	if ringSize <= 0 {
		ringSize = 256
	}
	return &EventLog{w: w, ring: make([]Event, ringSize), counts: make(map[string]int64)}
}

// OpenEventLog opens the destination a binary's -obs-events flag names:
// "" keeps events in the ring only (still served on /debug/events), "-"
// is stderr, anything else is a file opened for append. The returned
// func closes the file, if one was opened.
func OpenEventLog(dest string) (*EventLog, func(), error) {
	var w io.Writer
	closeLog := func() {}
	switch dest {
	case "":
	case "-":
		w = os.Stderr
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("-obs-events: %w", err)
		}
		w, closeLog = f, func() { f.Close() }
	}
	return NewEventLog(w, 512), closeLog, nil
}

// Scope returns a view of the log that fills each emitted event's
// zero-valued scope fields from base. Scopes chain: a campaign-scoped
// log can hand out job-scoped views. The view shares the sequence
// counter, ring and writer with its parent. Nil-safe.
func (l *EventLog) Scope(base Event) *EventLog {
	if l == nil {
		return nil
	}
	merged := l.scope
	applyScope(&merged, base)
	return &EventLog{w: nil, scope: merged, parent: l}
}

func applyScope(dst *Event, src Event) {
	if dst.Campaign == "" {
		dst.Campaign = src.Campaign
	}
	if dst.Job == "" {
		dst.Job = src.Job
	}
	if dst.Attempt == 0 {
		dst.Attempt = src.Attempt
	}
	if dst.Site == "" {
		dst.Site = src.Site
	}
	if dst.Worker == "" {
		dst.Worker = src.Worker
	}
}

// root walks to the log owning the sequence counter and writer.
func (l *EventLog) root() *EventLog {
	r := l
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// Emit stamps ev with the next sequence number and the current time,
// fills empty scope fields from the log's scope, appends the JSON line
// to the writer, and records it in the ring. Nil-safe. Write errors
// are dropped: observability must never fail the campaign.
func (l *EventLog) Emit(ev Event) {
	if l == nil {
		return
	}
	applyScope(&ev, l.scope)
	r := l.root()
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now().UTC()
	}
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next, r.filled = 0, true
	}
	r.counts[ev.Name]++
	var line []byte
	if r.w != nil {
		line, _ = json.Marshal(ev)
	}
	if line != nil {
		line = append(line, '\n')
		r.w.Write(line)
	}
	r.mu.Unlock()
}

// Seq returns the last assigned sequence number.
func (l *EventLog) Seq() int64 {
	if l == nil {
		return 0
	}
	r := l.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Count returns how many events with this name have been emitted.
func (l *EventLog) Count(name string) int64 {
	if l == nil {
		return 0
	}
	r := l.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// Counts returns a copy of the per-name emission counts.
func (l *EventLog) Counts() map[string]int64 {
	if l == nil {
		return nil
	}
	r := l.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Recent returns up to n most-recent events, oldest first.
func (l *EventLog) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	r := l.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.filled {
		size = len(r.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}
