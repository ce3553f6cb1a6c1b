package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/sig"
	"partialtor/internal/sweep"
	"partialtor/internal/vote"
)

// TestProtocolsShareOneConsensus: a consensus is a pure function of its vote
// set, so healthy Current, Synchronous and ICPS runs on one inputs entry get
// the one document its memo aggregated and sealed.
func TestProtocolsShareOneConsensus(t *testing.T) {
	base := Scenario{Relays: 100, EntryPadding: -1, Seed: 13}
	var first *vote.Consensus
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		s := base
		s.Protocol = p
		c := mustRun(t, s).Consensus()
		if c == nil || c.NumVotes != 9 {
			t.Fatalf("%v: healthy run holds %v, want a nine-vote consensus", p, c)
		}
		if first == nil {
			first = c
		} else if c != first {
			t.Fatalf("%v holds its own consensus %p, want the entry's %p", p, c, first)
		}
	}
}

// TestSharedConsensusDigestHolds: a five-vote ICPS set under the outage (7
// authorities, the first two flooded for five minutes) gives the digest it
// gave before the memo moved to the inputs entry.
func TestSharedConsensusDigestHolds(t *testing.T) {
	s := Scenario{Protocol: ICPS, N: 7, Relays: 100, EntryPadding: -1, Seed: 3,
		Attack: &attack.Plan{Targets: attack.FirstTargets(2), End: 5 * time.Minute}}
	c := mustRun(t, s).Consensus()
	const want = "27c4f8f604ab11ffe30eee36ed71ebbde31c798fac3f6b106e117b374245c51d"
	if c == nil || c.NumVotes != 5 || c.Digest().Hex() != want {
		t.Fatalf("consensus %v, want five votes and digest %s", c, want)
	}
}

// TestSweepCellsShareOneConsensus: four sweep workers run the three
// protocols, healthy and under the five-minute outage, at two bandwidths, on
// one freshly built inputs entry. They sign into its key pairs' memos at once
// and take one another's signatures, and the healthy cells read the one
// consensus they share, rendering, sealing and sizing it at once. Every
// cell's digest equals that of the same cell in a one-worker sweep on a fresh
// entry, and in one more one-worker sweep on that entry once it is warm,
// which takes every signature from the key memos. Under -race this fails if
// reading a shared consensus writes to it, or if a key memo is read while
// another worker writes it; CI's race job runs it.
func TestSweepCellsShareOneConsensus(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	base := Scenario{Relays: 80, EntryPadding: -1, Round: 15 * time.Second, Seed: 17}
	outage := attack.FiveMinuteOutage(attack.MajorityTargets(9))
	grid := sweep.MustNew(sweep.Of("protocol", Current, Synchronous, ICPS),
		sweep.Of("attack", (*attack.Plan)(nil), &outage), sweep.Floats("mbit", 250, 100))
	type cell struct {
		cons   *vote.Consensus
		digest [sha256.Size]byte
	}
	run := func(workers int, fresh bool) []sweep.Result[cell] {
		if fresh {
			evictInputs(t, base)
		}
		results := sweep.RunParams(bg, grid, sweep.Params{Workers: workers}, func(ctx context.Context, c sweep.Cell) (cell, error) {
			s := base
			s.Protocol, s.Attack = c.Value("protocol").(Protocol), c.Value("attack").(*attack.Plan)
			s.Bandwidth = c.Float("mbit") * 1e6
			res, err := RunE(ctx, s)
			if err != nil {
				return cell{}, err
			}
			cons := res.Consensus()
			if cons == nil && s.Attack == nil {
				return cell{}, fmt.Errorf("cell %v: no consensus", c)
			}
			for range 3 {
				if cons == nil {
					break
				}
				enc := cons.Encode()
				if sig.Hash(enc) != cons.Digest() || int64(len(enc)) != cons.EncodedSize() {
					return cell{}, fmt.Errorf("cell %v: the shared consensus's rendering disagrees with its seal", c)
				}
			}
			return cell{cons, protocolDigest(res)}, nil
		})
		if err := sweep.FirstErr(results); err != nil {
			t.Fatal(err)
		}
		return results
	}
	parallel, serial, warm := run(4, true), run(1, true), run(1, false)
	var healthy *sweep.Result[cell]
	for i, r := range parallel {
		if r.Value.digest != serial[i].Value.digest {
			t.Fatalf("cell %v: digest %x on four workers, %x on one", r.Cell, r.Value.digest[:8], serial[i].Value.digest[:8])
		}
		if warm[i].Value.digest != serial[i].Value.digest {
			t.Fatalf("cell %v: digest %x on warm keys, %x signed cold", r.Cell, warm[i].Value.digest[:8], serial[i].Value.digest[:8])
		}
		if r.Cell.Value("attack").(*attack.Plan) != nil {
			continue
		}
		if healthy == nil {
			healthy = &parallel[i]
		} else if r.Value.cons != healthy.Value.cons {
			t.Fatalf("cell %v holds consensus %p, cell %v holds %p: want one", r.Cell, r.Value.cons, healthy.Cell, healthy.Value.cons)
		}
	}
}

// evictInputs drops every inputs entry of s's (N, seed), any of which would
// lend a new entry its warm keys, and builds s's entry afresh on every core:
// the next run on s signs with a fresh key set whose memos are empty. Key
// derivation is deterministic, so the fresh keys sign exactly as the evicted
// ones did.
func evictInputs(t *testing.T, s Scenario) {
	t.Helper()
	s = s.withDefaults()
	warm, _ := Inputs(s)
	inputsCache.mu.Lock()
	inputsCache.entries = slices.DeleteFunc(inputsCache.entries, func(e *inputsEntry) bool { return e.n == s.N && e.seed == s.Seed })
	inputsCache.mu.Unlock()
	if fresh, _ := Inputs(s); slices.ContainsFunc(fresh, func(k *sig.KeyPair) bool { return slices.Contains(warm, k) }) {
		t.Fatal("an evicted entry's key pair is handed out again")
	}
}

// protocolDigest is runDigest for a run with no distribution phase.
func protocolDigest(res *RunResult) [sha256.Size]byte {
	h := sha256.New()
	hashRun(h, res)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
