package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one campaign
// share its id as Trace; Parent is the ID of the span that caused this
// one (0 for a root). Times are wall-clock nanoseconds because half of
// the spans are rebuilt from the fleet's event logs, which only carry
// wall-clock stamps.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced runs stay untraced.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(trace, name string, parent int, start, end time.Time) int {
	return r.addNs(trace, name, parent, start.UnixNano(), end.UnixNano())
}

func (r *recorder) addNs(trace, name string, parent int, start, end int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// finish computes self times and returns the spans.
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	return r.spans
}

// selfTimes fills SelfNs: a span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (two workers pulling under one campaign) and may stick out of the
// parent; the cover is the union of the children clipped to the parent.
func selfTimes(spans []span) {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.SelfNs = (s.End - s.Start) - cover(children[s.ID], s.Start, s.End)
	}
}

// cover is the total length of the union of ivs clipped to [lo, hi].
func cover(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// jobTimeline is one pull as the fleet saw it: which worker ran it, when
// it started and finished there, and how long building its engine took.
type jobTimeline struct {
	Worker        string
	Started, Done int64
	BuildNs       int64
}

// campaignTimeline is one served campaign from the client's submit to
// the PMF, with the fleet-side instants that split it into phases.
type campaignTimeline struct {
	Submit, FirstLease, LastResult, End int64
	Jobs                                []jobTimeline
}

// shares splits workers × (End − Submit) of one campaign into the five
// phases the per-layer report names.
type shares struct{ Head, Build, Pull, Idle, Tail float64 }

func (s shares) sum() float64 { return s.Head + s.Build + s.Pull + s.Idle + s.Tail }

// partition attributes the fleet's time during one campaign: head is
// submit → first lease and tail is last result → PMF (the whole fleet
// waits through both), build and pull are what the workers spent on this
// campaign's jobs, and idle is the rest of the workers' time between
// first lease and last result, measured per worker from the gaps between
// its jobs. The five are computed independently, so they sum to 1 only
// if every job was attributed to the right campaign and worker.
func partition(tl campaignTimeline, workers []string) shares {
	total := float64(len(workers)) * float64(tl.End-tl.Submit)
	if total <= 0 {
		return shares{}
	}
	w := float64(len(workers))
	var build, pull, idle float64
	busy := make(map[string][][2]int64)
	for _, j := range tl.Jobs {
		build += float64(j.BuildNs)
		pull += float64(j.Done - j.Started - j.BuildNs)
		busy[j.Worker] = append(busy[j.Worker], [2]int64{j.Started, j.Done})
	}
	for _, name := range workers {
		idle += float64(tl.LastResult-tl.FirstLease) - float64(cover(busy[name], tl.FirstLease, tl.LastResult))
	}
	return shares{
		Head:  w * float64(tl.FirstLease-tl.Submit) / total,
		Build: build / total,
		Pull:  pull / total,
		Idle:  idle / total,
		Tail:  w * float64(tl.End-tl.LastResult) / total,
	}
}
