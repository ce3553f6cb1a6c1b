package dircache

import (
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/simnet"
)

// compromiseSpec is smallSpec with n caches compromised in the given mode.
func compromiseSpec(mode attack.CompromiseMode, n int, verify bool) Spec {
	s := smallSpec()
	s.Compromise = &attack.CompromisePlan{
		Targets: attack.FirstTargets(n),
		Mode:    mode,
	}
	s.VerifyClients = verify
	return s
}

func TestStaleCachesMisleadUnverifiedClients(t *testing.T) {
	res, err := Run(compromiseSpec(attack.CompromiseStale, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	// Chain-blind clients accept the previous epoch: they look covered but
	// are not.
	if res.Misled == 0 {
		t.Fatal("no clients misled by stale caches")
	}
	if res.Coverage()+float64(res.Misled)/float64(res.TotalClients) < 0.999 {
		t.Fatalf("population unaccounted for: covered %.3f, misled %d",
			res.Coverage(), res.Misled)
	}
	if res.NaiveCoverage() <= res.Coverage() {
		t.Fatalf("naive coverage %.3f not above genuine %.3f",
			res.NaiveCoverage(), res.Coverage())
	}
	// Nothing is detected without verification.
	if res.StaleRejections != 0 || len(res.ForkDetections) != 0 {
		t.Fatalf("detections without verification: stale=%d forks=%d",
			res.StaleRejections, len(res.ForkDetections))
	}
	// The genuine coverage lost must be roughly the compromised caches'
	// selection share (3 of 8).
	if res.Coverage() > 0.8 {
		t.Fatalf("stale caches barely dented genuine coverage: %.3f", res.Coverage())
	}
}

func TestVerifyingClientsRejectStaleCaches(t *testing.T) {
	res, err := Run(compromiseSpec(attack.CompromiseStale, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misled != 0 {
		t.Fatalf("%d verifying clients misled", res.Misled)
	}
	if res.StaleRejections == 0 {
		t.Fatal("no stale rejections recorded")
	}
	if res.ExtraFetches == 0 {
		t.Fatal("rejections should cost extra fetches")
	}
	// The rejected clients fall back to the five honest caches and the
	// population still reaches target coverage.
	if res.Coverage() < res.Spec.TargetCoverage {
		t.Fatalf("verified coverage %.3f below target %.2f",
			res.Coverage(), res.Spec.TargetCoverage)
	}
	if res.TimeToTarget == simnet.Never {
		t.Fatal("target coverage never reached despite honest majority")
	}
	// All three stale caches end up distrusted by at least one fleet.
	if len(res.DistrustedCaches) != 3 {
		t.Fatalf("distrusted caches %v, want the 3 stale ones", res.DistrustedCaches)
	}
	for i, c := range res.DistrustedCaches {
		if c != i {
			t.Fatalf("distrusted caches %v, want [0 1 2]", res.DistrustedCaches)
		}
	}
}

func TestEquivocatingCachesPoisonUnverifiedClients(t *testing.T) {
	res, err := Run(compromiseSpec(attack.CompromiseEquivocate, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misled == 0 {
		t.Fatal("no clients took the fork")
	}
	if len(res.ForkDetections) != 0 {
		t.Fatal("fork detected without verification")
	}
}

func TestVerifyingClientsDetectEquivocation(t *testing.T) {
	res, err := Run(compromiseSpec(attack.CompromiseEquivocate, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misled != 0 {
		t.Fatalf("%d verifying clients misled", res.Misled)
	}
	if len(res.ForkDetections) == 0 {
		t.Fatal("equivocation went undetected")
	}
	det := res.ForkDetections[0]
	if det.Proof == nil {
		t.Fatal("detection carries no fork proof")
	}
	// The detection names the compromised caches and nobody else.
	for _, c := range det.Caches {
		if c != 0 && c != 1 {
			t.Fatalf("detection blames honest cache %d (caches %v)", c, det.Caches)
		}
	}
	if len(det.Caches) == 0 {
		t.Fatal("detection names no cache")
	}
	// Coverage still reached via the honest caches.
	if res.Coverage() < res.Spec.TargetCoverage {
		t.Fatalf("verified coverage %.3f below target", res.Coverage())
	}
	if res.TimeToTarget == simnet.Never {
		t.Fatal("target never reached despite honest majority")
	}
	// No honest cache may end up distrusted.
	for _, c := range res.DistrustedCaches {
		if c > 1 {
			t.Fatalf("honest cache %d distrusted (%v)", c, res.DistrustedCaches)
		}
	}
}

// TestForkProofNamesCulprits: the culprit set of the proof a verifying fleet
// assembles against an equivocating cache is exactly the signer set the
// adversary used on the fork.
func TestForkProofNamesCulprits(t *testing.T) {
	spec := compromiseSpec(attack.CompromiseEquivocate, 2, true)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ForkDetections) == 0 {
		t.Fatal("no fork detections to take a proof from")
	}
	proof := res.ForkDetections[0].Proof

	// Culprits: the adversary signed the fork with the same majority that
	// signed the genuine link (the paper's misbehaving-majority epoch), so
	// every fork signer is a culprit.
	ctx := res.Spec.Chain
	if ctx == nil {
		t.Fatal("run synthesized no chain context")
	}
	culprits := proof.Culprits()
	if len(culprits) != len(ctx.Fork.Sigs) {
		t.Fatalf("culprits %v, want the %d fork signers", culprits, len(ctx.Fork.Sigs))
	}
	got := map[int]bool{}
	for _, c := range culprits {
		got[c] = true
	}
	for _, s := range ctx.Fork.Sigs {
		if !got[s.Signer] {
			t.Fatalf("fork signer %d missing from culprits %v", s.Signer, culprits)
		}
	}
}

// TestFullyCompromisedTierYieldsZeroVerifiedCoverage: when every cache is
// stale, verifying clients have nowhere honest to fall back to — coverage
// must go to zero rather than into a retry storm.
func TestFullyCompromisedTierYieldsZeroVerifiedCoverage(t *testing.T) {
	spec := smallSpec()
	spec.Compromise = &attack.CompromisePlan{
		Targets: attack.FirstTargets(spec.Caches),
		Mode:    attack.CompromiseStale,
	}
	spec.VerifyClients = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != 0 {
		t.Fatalf("%d clients covered by an all-stale tier", res.Covered)
	}
	if res.Misled != 0 {
		t.Fatalf("%d verifying clients misled", res.Misled)
	}
	if res.StaleRejections == 0 {
		t.Fatal("no rejections recorded")
	}
	if res.TimeToTarget != simnet.Never {
		t.Fatalf("target reached at %v on an all-stale tier", res.TimeToTarget)
	}
}

// TestHonestVerificationIsFree: verification with an all-honest tier must
// not reject anything or change coverage.
func TestHonestVerificationIsFree(t *testing.T) {
	plain, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.VerifyClients = true
	verified, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if verified.StaleRejections != 0 || verified.Misled != 0 ||
		len(verified.ForkDetections) != 0 || verified.ExtraFetches != 0 {
		t.Fatalf("honest tier triggered the verifier: %s", verified.Summary())
	}
	if verified.Coverage() != plain.Coverage() {
		t.Fatalf("verification changed honest coverage: %.4f vs %.4f",
			verified.Coverage(), plain.Coverage())
	}
}

// TestCompromiseValidation rejects malformed compromise specs.
func TestCompromiseValidation(t *testing.T) {
	bad := []Spec{
		{Caches: 4, Compromise: &attack.CompromisePlan{Targets: []int{4}, Mode: attack.CompromiseStale}},
		{Compromise: &attack.CompromisePlan{Mode: attack.CompromiseMode(9)}},
	}
	for i, s := range bad {
		if _, err := Run(s); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

// TestStaleCacheServesWithoutFetching: a stale cache never contacts the
// authorities yet serves from t=0 — it looks *faster* than honest caches,
// which is what makes the attack insidious.
func TestStaleCacheServesWithoutFetching(t *testing.T) {
	spec := compromiseSpec(attack.CompromiseStale, 2, false)
	spec.PublishAt = 2 * time.Minute // honest caches must wait for this
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The stale caches served before the genuine consensus even existed.
	first := res.Spec.RunLimit()
	for _, p := range res.Points {
		if p.At < first {
			first = p.At
		}
	}
	if res.Misled == 0 {
		t.Fatal("stale caches served nobody")
	}
	// Stale caches never fetched: only honest caches show a fetch instant.
	withDoc := 0
	for _, at := range res.CacheFetchedAt {
		if at != simnet.Never {
			withDoc++
		}
	}
	if withDoc != res.Spec.Caches-2 {
		t.Fatalf("%d caches fetched, want %d honest ones", withDoc, res.Spec.Caches-2)
	}
}

// TestMirrorMajorityBeatsVerification pins the coverage cliff's far side:
// when equivocating caches outnumber honest ones, the corroboration vote
// goes to the adversary and even verifying clients in the fork-target
// fleets are misled. Verification narrows the attack to the fork-target
// fraction; it cannot beat a mirror majority.
func TestMirrorMajorityBeatsVerification(t *testing.T) {
	spec := smallSpec() // 8 caches
	spec.Compromise = &attack.CompromisePlan{
		Targets: attack.FirstTargets(6),
		Mode:    attack.CompromiseEquivocate,
	}
	spec.VerifyClients = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misled == 0 {
		t.Fatal("a compromised mirror majority misled nobody")
	}
	if res.Coverage() >= res.Spec.TargetCoverage {
		t.Fatalf("genuine coverage %.3f despite a compromised majority", res.Coverage())
	}
	// The equivocation is still detected and proven, even though the vote
	// was lost — that is the residual value of hash chaining here.
	if len(res.ForkDetections) == 0 {
		t.Fatal("fork undetected")
	}
}

// TestEquivocationBlameAcrossSeeds is the regression net for transient
// corroboration: equivocating caches pre-load their fork, so a fork-target
// fleet can anchor on the adversary's side and condemn the first honest
// cache that contradicts it. Blame and trust must be revised once the
// honest majority weighs in — across many seeds, the final detections and
// distrust set may name only the compromised caches, and coverage must
// still reach target. (Seeds 14, 20, 41 reproduced the pre-fix wrong
// blame.)
func TestEquivocationBlameAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		spec := compromiseSpec(attack.CompromiseEquivocate, 2, true)
		spec.Seed = seed
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ForkDetections) == 0 {
			t.Fatalf("seed %d: equivocation undetected", seed)
		}
		for _, det := range res.ForkDetections {
			if len(det.Caches) == 0 {
				t.Fatalf("seed %d: detection names no cache", seed)
			}
			for _, c := range det.Caches {
				if c > 1 {
					t.Fatalf("seed %d: detection blames honest cache %d (%v)",
						seed, c, det.Caches)
				}
			}
		}
		for _, c := range res.DistrustedCaches {
			if c > 1 {
				t.Fatalf("seed %d: honest cache %d left distrusted (%v)",
					seed, c, res.DistrustedCaches)
			}
		}
		if res.Coverage() < res.Spec.TargetCoverage {
			t.Fatalf("seed %d: coverage %.3f below target", seed, res.Coverage())
		}
		if res.Misled != 0 {
			t.Fatalf("seed %d: %d verifying clients misled", seed, res.Misled)
		}
	}
}
