package grid

import (
	"reflect"
	"testing"
)

func TestPolicyPriorityThenFairShareThenSeq(t *testing.T) {
	p := NewPolicy(0)
	p.Charge("greedy", 100)
	cands := []Candidate{
		{Tenant: "greedy", Priority: 0, Seq: 0},
		{Tenant: "idle", Priority: 0, Seq: 1},
		{Tenant: "idle", Priority: 5, Seq: 2},
		{Tenant: "idle", Priority: 0, Seq: 3},
	}
	got := p.Rank(cands, nil)
	// Priority 5 first; then the idle tenant's two zero-priority entries
	// in seq order (less usage than greedy); greedy last.
	want := []int{2, 1, 3, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank = %v, want %v", got, want)
	}

	// The extra ledger (live leased work) reorders without a permanent
	// charge: load "idle" up and it sinks below "greedy".
	got = p.Rank(cands, map[string]float64{"idle": 1000})
	want = []int{2, 0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank with extra = %v, want %v", got, want)
	}
	if u := p.Usage("idle"); u != 0 {
		t.Fatalf("extra charged the ledger: usage(idle) = %v", u)
	}
}

func TestPolicyAgingOvertakesPriority(t *testing.T) {
	p := NewPolicy(2) // 2 effective points per hour waited
	fresh := Candidate{Tenant: "hi", Priority: 10, WaitHours: 0, Seq: 1}
	for _, tc := range []struct {
		wait  float64
		first int // index expected to rank first
	}{
		{wait: 0, first: 1},
		{wait: 4, first: 1},   // 0 + 2·4 = 8 < 10
		{wait: 5.5, first: 0}, // 0 + 2·5.5 = 11 > 10
	} {
		aged := Candidate{Tenant: "lo", Priority: 0, WaitHours: tc.wait, Seq: 0}
		got := p.Rank([]Candidate{aged, fresh}, nil)[0]
		if got != tc.first {
			t.Fatalf("wait %.1f h: first = %d, want %d", tc.wait, got, tc.first)
		}
	}
}

// TestPolicyUsageBreaksTieUnderAging: with aging on, two equal-priority
// candidates submitted a second apart sit in one priority band, so the
// tenant that has used less goes first — the second's head start in
// effective priority (1/3600 of a point) must not decide it. Aging still
// decides across bands: an hour's wait lifts the older one a whole band.
func TestPolicyUsageBreaksTieUnderAging(t *testing.T) {
	p := NewPolicy(1)
	p.Charge("bulk", 12)
	bulk := Candidate{Tenant: "bulk", WaitHours: 1.0 / 3600, Seq: 0}
	probe := Candidate{Tenant: "probe", WaitHours: 0, Seq: 1}
	if got := p.Rank([]Candidate{bulk, probe}, nil); got[0] != 1 {
		t.Fatalf("Rank = %v: a second of seniority outranked fair share", got)
	}
	// Live load counts like ledger usage.
	idle := NewPolicy(1)
	if got := idle.Rank([]Candidate{bulk, probe}, map[string]float64{"bulk": 2}); got[0] != 1 {
		t.Fatalf("Rank with leased load = %v, want the idle tenant first", got)
	}
	bulk.WaitHours = 1
	if got := p.Rank([]Candidate{bulk, probe}, nil); got[0] != 0 {
		t.Fatalf("Rank = %v: an hour of aging did not lift the older candidate a band", got)
	}
}

// TestStarvationFreedom submits an unbounded-looking stream of fresh
// high-priority jobs alongside one old low-priority job and requires
// the aged job to be scheduled within the bound aging implies: once its
// wait exceeds (priority gap)/Aging hours, no fresh job outranks it.
func TestStarvationFreedom(t *testing.T) {
	p := NewPolicy(1) // 1 point per hour: gap of 10 → overtakes after 10 h
	starved := Candidate{Tenant: "lo", Priority: 0, Seq: 0}
	for round := 0; round < 30; round++ {
		starved.WaitHours = float64(round)
		fresh := make([]Candidate, 0, 8)
		for i := 0; i < 8; i++ {
			fresh = append(fresh, Candidate{Tenant: "hi", Priority: 10, WaitHours: 0, Seq: 1 + round*8 + i})
		}
		order := p.Rank(append([]Candidate{starved}, fresh...), nil)
		if order[0] == 0 {
			// At round 10 the priorities tie and FCFS breaks it for the
			// older job; before that a win would be a bug.
			if round < 10 {
				t.Fatalf("aged job won too early, round %d", round)
			}
			return // scheduled: not starved
		}
		if round > 10 {
			t.Fatalf("aged job still starved at wait %d h (aging bound is 10 h)", round)
		}
	}
	t.Fatal("aged job never scheduled: starvation")
}
