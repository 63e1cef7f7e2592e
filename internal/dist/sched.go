package dist

// Multi-campaign scheduling surface. The coordinator holds a *set* of
// active campaigns (each installed by a RunTagged call, typically from
// the control plane's queue) and, every time an idle worker asks for
// work, decides which campaign's jobs to offer first. That decision is
// delegated to a Scheduler so the policy — priority, tenant fair share,
// quotas — lives outside the lease machinery and can be
// shared with the discrete-event simulator (internal/grid) and the
// control plane (internal/controlplane).
//
// Scheduling order never affects results: every job is bit-exact
// deterministic given its (combo, seed, index), so any interleaving of
// campaigns merges to byte-identical PMFs. The Scheduler decides only
// *when* work runs, never *what* it computes.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"spice/internal/campaign"
)

// CampaignTag is submitter-side identity attached to a campaign: the
// tenant it is accounted to, its base scheduling priority, and an
// optional name distinguishing otherwise-identical submissions. The
// zero tag is the legacy single-tenant Run behavior.
type CampaignTag struct {
	// Tenant is the fair-share/quota accounting identity ("" = the
	// anonymous shared tenant).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the base scheduling priority (higher first, 0 default).
	Priority int `json:"priority,omitempty"`
	// Name distinguishes submissions with identical specs — without it
	// two identical specs from the same tenant are one campaign.
	Name string `json:"name,omitempty"`
}

// CampaignView is the read-only scheduling view of one active campaign,
// handed to the Scheduler on every offer and returned by Campaigns().
type CampaignView struct {
	// Key is the campaign's stable identity (see SpecKey).
	Key string
	// Tenant and Priority echo the submission tag.
	Tenant   string
	Priority int
	// Seq is the install order within this coordinator process — the
	// FCFS tiebreak.
	Seq int
	// Submitted is when this process installed the campaign.
	Submitted time.Time
	// Job counts: Pending are runnable-or-backing-off, Leased are in
	// flight on workers, Done are completed. Total = Pending+Leased+Done.
	Pending int
	Leased  int
	Done    int
	Total   int
	// LeasedNs is the work of the Leased jobs: campaign.Spec.PullNs
	// summed over them, the unit the control plane's fair share charges.
	LeasedNs float64
}

// Scheduler orders the active campaigns each time a worker asks for
// work. Offer returns indices into camps in offer order; campaigns
// whose index is omitted are offered nothing this round — which is how
// a policy enforces quotas (omit a tenant over its running-job limit,
// and whatever it ranks behind). Coordinator.SetScheduler installs one;
// without it campaigns are offered in install order (plain FCFS across
// tenants).
type Scheduler interface {
	Offer(now time.Time, camps []CampaignView) []int
}

// SchedulerFunc adapts a function to the Scheduler interface.
type SchedulerFunc func(now time.Time, camps []CampaignView) []int

// Offer implements Scheduler.
func (f SchedulerFunc) Offer(now time.Time, camps []CampaignView) []int { return f(now, camps) }

// SpecKey returns the stable identity of a (spec, tag) submission: a
// short hash of the tag and the spec's canonical JSON. It is the same
// key the journal uses for replay attribution and the control plane
// uses for job-ID scoping, so it survives coordinator restarts.
func SpecKey(spec campaign.Spec, tag CampaignTag) (string, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("dist: encoding spec: %w", err)
	}
	return campaignKeyTagged(tag, specJSON), nil
}

// campaignKeyTagged derives the campaign key from a tag plus the spec
// JSON. A zero tag hashes the spec bytes alone, which keeps the key of
// legacy untagged Runs identical to the historical campaignKey — and
// with it the journal replay keys of pre-tag state directories.
func campaignKeyTagged(tag CampaignTag, specJSON []byte) string {
	h := fnv.New64a()
	if tag != (CampaignTag{}) {
		fmt.Fprintf(h, "%s|%d|%s|", tag.Tenant, tag.Priority, tag.Name)
	}
	h.Write(specJSON)
	return fmt.Sprintf("c-%08x", uint32(h.Sum64()))
}
