package attack

import (
	"errors"
	"fmt"
	"slices"

	"partialtor/internal/topo"
)

// A flood (Plan), a mirror takeover (CompromisePlan) and a fault
// (faults.Fault) name their victims the same way: a tier, and either
// tier-relative indices or one region of the run's topology. The rules of
// that target scope live here once; each type keeps its own fields, calls
// in, and prefixes the errors with its package.

// ValidateScope rejects a scope no run could satisfy: an unknown tier, a
// negative index, or explicit indices and a region at once.
func ValidateScope(tier Tier, targets []int, region string) error {
	if tier != TierAuthority && tier != TierCache {
		return fmt.Errorf("unknown tier %v", tier)
	}
	for _, t := range targets {
		if t < 0 {
			return fmt.Errorf("negative target index %d", t)
		}
	}
	if region != "" && len(targets) > 0 {
		return errors.New("both explicit Targets and a TargetRegion; pick one")
	}
	return nil
}

// CheckScope holds a scope against one run: on top of ValidateScope, a
// region needs a topology to resolve in, and an index beyond the
// tierSize-node tier would silently shrink the perturbation — the run would
// report resilience it never tested.
func CheckScope(tier Tier, targets []int, region string, tierSize int, t topo.Topology) error {
	if err := ValidateScope(tier, targets, region); err != nil {
		return err
	}
	if region != "" && t == nil {
		return fmt.Errorf("region %q needs a topology; the flat model has no regions", region)
	}
	for _, x := range targets {
		if x >= tierSize {
			return fmt.Errorf("target %d beyond the %d-node %v tier", x, tierSize, tier)
		}
	}
	return nil
}

// ResolveScope returns the indices a scope stands for: targets as they are
// for an index scope, every node of the tier the topology places in the
// region for a region scope. A region that is unknown, or holds none of the
// tier's nodes, is an error: perturbing nobody is a configuration bug.
func ResolveScope(tier Tier, targets []int, region string, t topo.Topology, tierSize int) ([]int, error) {
	if region == "" {
		return targets, nil
	}
	if err := CheckScope(tier, targets, region, tierSize, t); err != nil {
		return nil, err
	}
	r, err := topo.RegionByName(t, region)
	if err != nil {
		return nil, err
	}
	if targets = topo.RegionTargets(t, r, tierSize); len(targets) == 0 {
		return nil, fmt.Errorf("region %q holds none of the %d-node %v tier", region, tierSize, tier)
	}
	return targets, nil
}

// TargetSet compiles targets into the membership set InScope answers from.
func TargetSet(targets []int) map[int]struct{} {
	set := make(map[int]struct{}, len(targets))
	for _, t := range targets {
		set[t] = struct{}{}
	}
	return set
}

// InScope reports whether the tier-relative index is a target: in O(1) from
// a compiled set, by scanning targets while set is still nil.
func InScope(set map[int]struct{}, targets []int, index int) bool {
	if set == nil {
		return slices.Contains(targets, index)
	}
	_, ok := set[index]
	return ok
}
