package grid

// Priority + fair-share ordering for the live control plane's lease path
// (internal/controlplane): each time a worker asks for work, the
// campaigns with pending jobs are ranked here and offered in that order,
// up to the first whose tenant is at its quota. The simulated batch
// queues (Queue.Submit, driven by internal/federation) stay FCFS with
// optional backfill. What the two share is the charge, not the order:
// the control plane charges a finished campaign the simulated ns of its
// pulls (campaign.Spec.PullNs), and that times
// campaign.CostModel.CPUHoursPerNs is the CPU-hours of its simulated
// jobs.
//
// The policy is three-keyed and deterministic:
//
//  1. priority band, descending — the whole-number part of the effective
//     priority: the submitter's Priority plus Aging points per hour
//     waited. Aging is the starvation-freedom mechanism: any waiting
//     candidate's effective priority grows without bound, so a stream of
//     fresh high-priority work can delay a low-priority candidate only
//     for a bounded time. It lifts a candidate across bands and does
//     nothing else: two candidates of one band are equals however long
//     either has waited, or the fraction of a point an earlier arrival
//     has aged would always win and the next key would never be read.
//  2. tenant fair-share usage, ascending — tenants that have consumed
//     less service go first within a priority band. Usage is whatever
//     the caller charges; only the ordering matters.
//  3. submission sequence, ascending — FCFS settles exact ties, which
//     also makes the whole order deterministic for a given input.

import (
	"math"
	"sort"
)

// Candidate is one schedulable item competing under a Policy: a
// campaign on the live control plane's lease path.
type Candidate struct {
	// Tenant is the fair-share accounting identity.
	Tenant string
	// Priority is the submitter-assigned base priority (higher first).
	Priority int
	// WaitHours is how long the candidate has been waiting; Aging
	// converts it into effective-priority points.
	WaitHours float64
	// Seq is the submission sequence number, the FCFS tiebreak.
	Seq int
}

// Policy orders candidates by priority band, fair share, and age, and keeps
// the per-tenant usage ledger the fair-share key reads. The zero value
// is a pure priority+FCFS policy (no aging, no usage charged yet).
type Policy struct {
	// Aging is effective-priority points granted per hour waited.
	// 0 disables aging (and with it the starvation-freedom guarantee
	// across priority bands).
	Aging float64

	usage map[string]float64
}

// NewPolicy returns a policy with the given aging rate.
func NewPolicy(aging float64) *Policy { return &Policy{Aging: aging} }

// Charge adds amount to tenant's fair-share usage.
func (p *Policy) Charge(tenant string, amount float64) {
	if p.usage == nil {
		p.usage = make(map[string]float64)
	}
	p.usage[tenant] += amount
}

// Usage returns tenant's accumulated fair-share usage.
func (p *Policy) Usage(tenant string) float64 { return p.usage[tenant] }

// Effective returns c's aged priority under p.
func (p *Policy) Effective(c Candidate) float64 {
	return float64(c.Priority) + p.Aging*c.WaitHours
}

// Rank returns the indices of cands in scheduling order. extra, if
// non-nil, is added to the ledger's usage per tenant — the live
// scheduler passes currently-leased work so a tenant saturating the
// fleet right now ranks behind one that is idle, without the ledger
// being permanently charged for unfinished jobs.
func (p *Policy) Rank(cands []Candidate, extra map[string]float64) []int {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	use := func(tenant string) float64 {
		u := p.usage[tenant]
		if extra != nil {
			u += extra[tenant]
		}
		return u
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ba, bb := math.Floor(p.Effective(ca)), math.Floor(p.Effective(cb)); ba != bb {
			return ba > bb
		}
		if ua, ub := use(ca.Tenant), use(cb.Tenant); ua != ub {
			return ua < ub
		}
		return ca.Seq < cb.Seq
	})
	return order
}
