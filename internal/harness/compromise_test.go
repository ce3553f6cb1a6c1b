package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/sweep"
)

// compromiseBase is a fast protocol scenario for compromise experiments.
func compromiseBase() Scenario {
	return Scenario{
		Protocol:     Current,
		Relays:       150,
		EntryPadding: 0,
		Round:        15 * time.Second,
		Seed:         3,
	}
}

func compromiseDist() dircache.Spec {
	return dircache.Spec{
		Clients:     20_000,
		Caches:      8,
		Fleets:      2,
		FetchWindow: 10 * time.Minute,
	}
}

// TestExperimentCompromiseDetection holds every compromised corpus cell to
// its kind's claim: the protocol generates a real consensus, the
// distribution tier carries an equivocating compromise, and the verifying
// clients catch and prove it, blaming only the equivocators, while still
// reaching target coverage through the honest caches on a chain anchored on
// that consensus.
func TestExperimentCompromiseDetection(t *testing.T) { walkClaim(t, "compromised") }

// TestExperimentCompromiseEveryPeriod: a compromise plan is active when
// present — every period of the experiment runs under it.
func TestExperimentCompromiseEveryPeriod(t *testing.T) {
	dist := compromiseDist()
	dist.Compromise = &attack.CompromisePlan{
		Targets: attack.FirstTargets(3),
		Mode:    attack.CompromiseStale,
	}
	dist.VerifyClients = true
	exp, err := NewExperiment(WithScenario(compromiseBase()), WithPeriods(2), WithDistribution(dist))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Distributions {
		if d.StaleRejections == 0 {
			t.Fatalf("period %d ran uncompromised", i)
		}
	}
}

// TestExperimentCompromiseValidation pins the configuration contract.
func TestExperimentCompromiseValidation(t *testing.T) {
	with := func(p attack.CompromisePlan) ExperimentOption {
		dist := compromiseDist()
		dist.Compromise = &p
		return WithDistribution(dist)
	}
	// A target beyond the cache tier fails eagerly, not at period N.
	if _, err := NewExperiment(
		WithScenario(compromiseBase()),
		with(attack.CompromisePlan{Targets: []int{99}, Mode: attack.CompromiseStale}),
	); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("out-of-tier target: %v", err)
	}
}

// TestCompromisedFractionSweep is the acceptance-criteria sweep: one-period
// experiments across the compromised-mirror fraction, verified and not. As
// the fraction rises, naive (unverified) coverage of the genuine document
// collapses smoothly, while verified coverage holds at target until the
// compromised caches outnumber the honest ones — the coverage cliff the
// cachesweep table renders.
func TestCompromisedFractionSweep(t *testing.T) {
	grid := sweep.MustNew(
		sweep.Floats("frac", 0, 0.25, 0.75),
		sweep.Of("verify", false, true),
	)
	type cell struct {
		coverage float64
		forks    int
	}
	results := sweep.RunParams(context.Background(), grid, sweep.Params{}, func(_ context.Context, c sweep.Cell) (cell, error) {
		dist := compromiseDist()
		frac := c.Float("frac")
		if n := int(frac * float64(dist.Caches)); n > 0 {
			dist.Compromise = &attack.CompromisePlan{
				Targets: attack.FirstTargets(n),
				Mode:    attack.CompromiseEquivocate,
			}
		}
		dist.VerifyClients = c.Value("verify").(bool)
		exp, err := NewExperiment(WithScenario(compromiseBase()), WithDistribution(dist))
		if err != nil {
			return cell{}, err
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			return cell{}, err
		}
		d := res.Distributions[0]
		return cell{coverage: d.Coverage(), forks: len(d.ForkDetections)}, nil
	})
	if err := sweep.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	at := func(frac float64, verify bool) cell {
		for _, r := range results {
			if r.Cell.Float("frac") == frac && r.Cell.Value("verify").(bool) == verify {
				return r.Value
			}
		}
		t.Fatalf("no cell frac=%v verify=%v", frac, verify)
		return cell{}
	}
	// Healthy tier: full coverage, nothing detected, with or without
	// verification.
	for _, v := range []bool{false, true} {
		if c := at(0, v); c.coverage < 0.95 || c.forks != 0 {
			t.Fatalf("healthy cell verify=%v: %+v", v, c)
		}
	}
	// Minority compromise: unverified clients lose the compromised share;
	// verified clients detect the forks and hold the target.
	if c := at(0.25, false); c.coverage >= 0.95 || c.forks != 0 {
		t.Fatalf("unverified minority cell: %+v", c)
	}
	if c := at(0.25, true); c.coverage < 0.95 || c.forks == 0 {
		t.Fatalf("verified minority cell: %+v", c)
	}
	// Majority compromise: the cliff. Even verification cannot save the
	// fork-target fleets, but the forks are still caught and proven.
	if c := at(0.75, true); c.coverage >= 0.95 || c.forks == 0 {
		t.Fatalf("verified majority cell: %+v", c)
	}
	if c := at(0.75, false); c.coverage >= at(0.25, false).coverage {
		t.Fatalf("coverage did not fall with the compromised fraction: %+v", c)
	}
}
