package harness

import (
	"context"
	"fmt"
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

// TestSweepCellsShareOneConsensus: four sweep workers run cells on one inputs
// entry and read the one consensus they share, rendering, sealing and sizing
// it at once. Under -race this fails if reading a shared consensus writes to
// it; CI's race job runs it.
func TestSweepCellsShareOneConsensus(t *testing.T) {
	base := Scenario{Relays: 80, EntryPadding: -1, Round: 15 * time.Second, Seed: 17}
	grid := sweep.MustNew(sweep.Of("protocol", Current, Synchronous, ICPS), sweep.Floats("mbit", 250, 100))
	results := sweep.RunParams(bg, grid, sweep.Params{Workers: 4}, func(ctx context.Context, c sweep.Cell) (*vote.Consensus, error) {
		s := base
		s.Protocol, s.Bandwidth = c.Value("protocol").(Protocol), c.Float("mbit")*1e6
		res, err := RunE(ctx, s)
		if err != nil {
			return nil, err
		}
		cons := res.Consensus()
		if cons == nil {
			return nil, fmt.Errorf("cell %v: no consensus", c)
		}
		for range 3 {
			enc := cons.Encode()
			if sig.Hash(enc) != cons.Digest() || int64(len(enc)) != cons.EncodedSize() {
				return nil, fmt.Errorf("cell %v: the shared consensus's rendering disagrees with its seal", c)
			}
		}
		return cons, nil
	})
	if err := sweep.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Value != results[0].Value {
			t.Fatalf("cell %v holds consensus %p, cell %v holds %p: want one", r.Cell, r.Value, results[0].Cell, results[0].Value)
		}
	}
}
