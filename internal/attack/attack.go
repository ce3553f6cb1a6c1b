package attack

import (
	"fmt"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/topo"
)

// ResidualUnderDDoS is the bandwidth left to a flooded node, per Jansen et
// al. (0.5 Mbit/s), the figure the paper adopts (§4.3, Figure 7).
const ResidualUnderDDoS = 0.5e6

// Tier identifies which layer of the directory system a plan floods.
type Tier int

const (
	// TierAuthority targets consensus-generating directory authorities
	// (the default: existing plans are authority plans).
	TierAuthority Tier = iota
	// TierCache targets the directory caches that re-serve the consensus
	// to clients.
	TierCache
)

func (t Tier) String() string {
	switch t {
	case TierAuthority:
		return "authority"
	case TierCache:
		return "cache"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Plan is one DDoS window against a set of nodes in one tier.
type Plan struct {
	// Targets are node indices under attack, relative to the plan's tier
	// (authority indices for TierAuthority, cache indices for TierCache).
	Targets []int
	// TargetRegion, if non-empty, scopes the flood geographically instead
	// of by explicit indices: "flood the EU mirrors" is a TierCache plan
	// with TargetRegion "eu". The name is resolved against the run's
	// topology at wiring time (ResolveRegion fills Targets with every node
	// of the tier placed in that region), so a region-scoped plan needs a
	// run with a non-nil topology and empty Targets.
	TargetRegion string
	// Start and End bound the window [Start, End).
	Start, End time.Duration
	// Residual is the bandwidth (bits/s) left to each target during the
	// window; 0 knocks the target offline entirely.
	Residual float64
	// Tier selects the attacked layer; the zero value is TierAuthority.
	Tier Tier
}

// FiveMinuteOutage is the paper's headline attack: knock the majority of the
// authorities offline for the five minutes in which votes are exchanged.
func FiveMinuteOutage(targets []int) Plan {
	return Plan{Targets: targets, Start: 0, End: 5 * time.Minute, Residual: 0}
}

// Validate rejects malformed plans: an invalid target scope, a negative
// start, an inverted window or negative residual bandwidth. An empty window
// (End == Start) is a valid plan that floods nobody.
func (p *Plan) Validate() error {
	if err := ValidateScope(p.Tier, p.Targets, p.TargetRegion); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	if p.Start < 0 {
		return fmt.Errorf("attack: window starts at negative time %v", p.Start)
	}
	if p.End < p.Start {
		return fmt.Errorf("attack: window ends (%v) before it starts (%v)", p.End, p.Start)
	}
	if !(p.Residual >= 0) { // NaN fails every comparison
		return fmt.Errorf("attack: residual bandwidth %g is negative or NaN", p.Residual)
	}
	return nil
}

// ResolveRegion expands a region-scoped plan against the run's topology:
// Targets becomes every node of the plan's tierSize-node tier placed in
// TargetRegion, and the region name is cleared — a resolved plan is a plain
// index plan, so a caller that resolved early (e.g. to price the flood) can
// hand the same plan to a runner that resolves again. A region that is
// unknown, or holds none of the tier's nodes, is an error: flooding nobody is
// a configuration bug.
func (p *Plan) ResolveRegion(t topo.Topology, tierSize int) error {
	if p.TargetRegion == "" {
		return nil
	}
	if err := CheckScope(p.Tier, p.Targets, p.TargetRegion, tierSize, t); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	r, err := topo.RegionByName(t, p.TargetRegion)
	if err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	targets := topo.RegionTargets(t, r, tierSize)
	if len(targets) == 0 {
		return fmt.Errorf("attack: region %q holds none of the %d-node %v tier", p.TargetRegion, tierSize, p.Tier)
	}
	p.Targets, p.TargetRegion = targets, ""
	return nil
}

// Duration returns the window length.
func (p *Plan) Duration() time.Duration { return p.End - p.Start }

// CompromiseMode selects how a compromised directory cache misbehaves.
// Unlike a flood (Plan), a compromise does not cost bandwidth: the adversary
// controls the cache and serves wrong directory data, which only the
// proposal-239 hash chain lets clients catch (internal/client.Verifier).
type CompromiseMode int

const (
	// CompromiseStale keeps re-serving the previous epoch's consensus: the
	// cache looks alive and fast, but its clients never learn the current
	// network view.
	CompromiseStale CompromiseMode = iota
	// CompromiseEquivocate serves an adversary-signed fork of the current
	// consensus to a fraction of the client fleets and the genuine document
	// to the rest — the split-view attack hash chaining turns into
	// cryptographic evidence (chain.ForkProof).
	CompromiseEquivocate
)

func (m CompromiseMode) String() string {
	switch m {
	case CompromiseStale:
		return "stale"
	case CompromiseEquivocate:
		return "equivocate"
	}
	return fmt.Sprintf("CompromiseMode(%d)", int(m))
}

// CompromisePlan is the adversary's cache-compromise campaign: which caches
// misbehave and how, in every period of the run that carries it. It is the
// TierCache analogue of a flood Plan for an adversary that owns mirrors
// instead of renting stressor traffic (TorMult-style relay inflation mapped
// onto the mirror tier).
type CompromisePlan struct {
	// Targets are the compromised cache indices (tier-relative, like a
	// TierCache Plan's Targets).
	Targets []int
	// Mode selects the misbehavior.
	Mode CompromiseMode
}

// Validate rejects malformed compromise plans.
func (p *CompromisePlan) Validate() error {
	if p.Mode != CompromiseStale && p.Mode != CompromiseEquivocate {
		return fmt.Errorf("attack: unknown compromise mode %v", p.Mode)
	}
	if err := ValidateScope(TierCache, p.Targets, ""); err != nil {
		return fmt.Errorf("attack: compromise: %w", err)
	}
	return nil
}

// FirstTargets returns the first n node indices — the target set for a
// flood of exactly n nodes of a tier. n <= 0 yields an empty set.
func FirstTargets(n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// MajorityTargets returns the canonical target set: the first ⌊n/2⌋+1
// node indices (5 of 9 authorities). An empty tier (n <= 0) has no
// majority, so the result is empty — not the phantom index 0, which would
// poison plans built from an empty node set.
func MajorityTargets(n int) []int {
	if n <= 0 {
		return nil
	}
	return FirstTargets(sig.Majority(n))
}

// CostModel reproduces the paper's §4.3 attack-cost estimate, and extends
// it tier-aware: the same stressor pricing applied to the directory caches
// lets a TierCache plan against thousands of mirrors be priced — the
// over-provisioning defense economics (a mirror tier wide enough that
// flooding it costs more than flooding the nine authorities).
type CostModel struct {
	// PricePerMbitHour is the amortized stressor price to flood one target
	// with 1 Mbit/s for one hour (Jansen et al.): $0.00074.
	PricePerMbitHour float64
	// AuthorityLinkMbit is the estimated authority link capacity: 250.
	AuthorityLinkMbit float64
	// RequiredMbit is the bandwidth an authority needs to complete the
	// directory protocol at the current network size (~8000 relays): 10.
	RequiredMbit float64
	// CacheLinkMbit is the estimated per-cache link capacity for pricing
	// TierCache floods: 200, matching the distribution tier's default
	// cache bandwidth (a constant of internal/dircache).
	CacheLinkMbit float64
	// CachePerMonth is the monthly price of operating (or renting) one
	// malicious directory cache for a CompromisePlan: $40, a commodity VPS
	// with a 200 Mbit/s uplink. Compromise is priced per cache-month, not
	// per Mbit — owning a mirror costs rent, not stressor traffic.
	CachePerMonth float64
}

// DefaultCostModel returns the constants the paper uses.
func DefaultCostModel() CostModel {
	return CostModel{
		PricePerMbitHour:  0.00074,
		AuthorityLinkMbit: 250,
		RequiredMbit:      10,
		CacheLinkMbit:     200,
		CachePerMonth:     40,
	}
}

// CompromiseCostPerMonth prices a compromise plan: the monthly rent of every
// compromised cache. The comparison against PlanCost/PerMonth is the
// defense economics of the mirror tier — flooding it is priced in stressor
// Mbit-hours, subverting it in VPS-months.
func (m CostModel) CompromiseCostPerMonth(p CompromisePlan) float64 {
	return float64(len(p.Targets)) * m.CachePerMonth
}

// LinkMbit returns the priced link capacity of one node in the tier.
func (m CostModel) LinkMbit(t Tier) float64 {
	if t == TierCache {
		return m.CacheLinkMbit
	}
	return m.AuthorityLinkMbit
}

// FloodMbit is the attack traffic needed per target: enough to leave the
// authority below its protocol requirement (250 − 10 = 240 Mbit/s). A
// requirement above the link means there is nothing to flood: 0.
func (m CostModel) FloodMbit() float64 {
	f := m.AuthorityLinkMbit - m.RequiredMbit
	if f < 0 {
		f = 0
	}
	return f
}

// CostPerInstance is the dollar cost of breaking one consensus run by
// flooding `targets` authorities for `d` — the paper's accounting, i.e.
// the PlanCost of flooding each authority down to its protocol
// requirement. One pricing formula serves both paths, so the headline
// numbers and the plan-level grid can never diverge.
func (m CostModel) CostPerInstance(targets int, d time.Duration) float64 {
	return m.PlanCost(Plan{
		Tier:     TierAuthority,
		Targets:  FirstTargets(targets),
		End:      d,
		Residual: m.RequiredMbit * 1e6,
	})
}

// CostPerMonth is the cost of breaching every hourly consensus run for 30
// days (24 × 30 instances).
func (m CostModel) CostPerMonth(targets int, d time.Duration) float64 {
	return m.PerMonth(m.CostPerInstance(targets, d))
}

// Summary renders the headline numbers as the paper states them.
func (m CostModel) Summary(targets int, d time.Duration) string {
	return fmt.Sprintf(
		"flood %d authorities with %.0f Mbit/s for %v: $%.3f per instance, $%.2f per month",
		targets, m.FloodMbit(), d, m.CostPerInstance(targets, d), m.CostPerMonth(targets, d))
}

// PlanCost prices one plan's single window: pinning a target at the plan's
// residual bandwidth takes (link − residual) Mbit/s of stressor traffic per
// target for the window's duration. The link capacity is the plan's tier's
// (authorities 250 Mbit/s, caches 200), which is what makes flooding
// thousands of mirrors cost thousands of times the nine-authority attack.
func (m CostModel) PlanCost(p Plan) float64 {
	flood := m.LinkMbit(p.Tier) - p.Residual/1e6
	if flood < 0 {
		flood = 0
	}
	return float64(len(p.Targets)) * p.Duration().Hours() * flood * m.PricePerMbitHour
}

// MeshPartitionCost prices cutting one mirror out of a gossip mesh of the
// given degree for the window: with every mesh link terminating at a cache,
// isolating the node means flooding it and all `degree` neighbours down to
// residual — a TierCache plan over degree+1 targets. This is the economics
// the dissemination layer buys: under gossip an attacker must partition the
// mesh, not just the authorities, and the price grows with the mesh degree.
func (m CostModel) MeshPartitionCost(degree int, window time.Duration, residual float64) float64 {
	if degree < 0 {
		degree = 0
	}
	return m.PlanCost(Plan{
		Tier:     TierCache,
		Targets:  FirstTargets(degree + 1),
		End:      window,
		Residual: residual,
	})
}

// PerMonth scales a per-instance cost to the paper's monthly accounting:
// one instance per hourly consensus run for 30 days (24 × 30 instances).
func (m CostModel) PerMonth(instanceCost float64) float64 {
	return instanceCost * 24 * 30
}
