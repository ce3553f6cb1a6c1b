package attack

import (
	"errors"
	"fmt"

	"partialtor/internal/topo"
)

// A flood (Plan), a mirror takeover (CompromisePlan) and a fault
// (faults.Fault) name their victims the same way: a tier and tier-relative
// indices, or, for a flood, one region of the run's topology instead. The
// rules of that target scope live here once; each type keeps its own fields,
// calls in, and prefixes the errors with its package.

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
