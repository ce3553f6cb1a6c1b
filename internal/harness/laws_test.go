package harness

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
)

// lawPoint indexes TestConsensusLaws' grid: protocol, seed, relay count and
// bandwidth rung.
type lawPoint struct{ p, s, r, b int }

// consensusLaw relates two runs of one scenario that differ in one knob:
// lower ran one step below higher along step, which moves one index.
type consensusLaw struct {
	name  string
	step  lawPoint
	check func(lower, higher *RunResult) error
}

// consensusLaws are the consensus tier's metamorphic laws: more bandwidth
// never hurts, and a larger population never helps.
var consensusLaws = []consensusLaw{
	{"success is monotone in bandwidth", lawPoint{b: 1}, func(lower, higher *RunResult) error {
		if lower.Success && !higher.Success {
			return fmt.Errorf("succeeded, then failed with more bandwidth")
		}
		return nil
	}},
	{"latency does not rise with bandwidth", lawPoint{b: 1}, func(lower, higher *RunResult) error {
		if l, h := lawLatency(lower), lawLatency(higher); h > l {
			return fmt.Errorf("latency rose from %v to %v", l, h)
		}
		return nil
	}},
	{"latency does not fall with relays", lawPoint{r: 1}, func(lower, higher *RunResult) error {
		if l, h := lawLatency(lower), lawLatency(higher); h < l {
			return fmt.Errorf("latency fell from %v to %v", l, h)
		}
		return nil
	}},
}

// lawLatency is a run's latency, a failed run's being simnet.Never.
func lawLatency(r *RunResult) time.Duration {
	if !r.Success {
		return simnet.Never
	}
	return r.Latency
}

// TestConsensusLaws runs a quick-scale grid, 15 s rounds over three relay
// counts and a log-spaced bandwidth ladder under the three protocols and two
// seeds, and checks each law on every pair of runs one step apart along its
// knob. The ladder spans both lock-step protocols' failure edge at every
// relay count; ICPS succeeds on every rung, only later on the low ones.
func TestConsensusLaws(t *testing.T) {
	protocols := []Protocol{Current, Synchronous, ICPS}
	seeds := []int64{1, 2}
	relays := []int{300, 900, 1500}
	var mbits []float64
	for m := 0.25; m <= 64; m *= 2 {
		mbits = append(mbits, m)
	}
	size := lawPoint{len(protocols), len(seeds), len(relays), len(mbits)}
	index := func(q lawPoint) int { return ((q.p*size.s+q.s)*size.r+q.r)*size.b + q.b }
	runs := make([]*RunResult, size.p*size.s*size.r*size.b)
	var points []lawPoint
	for p := range size.p {
		for s := range size.s {
			for r := range size.r {
				for b := range size.b {
					q := lawPoint{p, s, r, b}
					res, err := RunE(t.Context(), Scenario{
						Protocol:  protocols[p],
						Relays:    relays[r],
						Bandwidth: mbits[b] * 1e6,
						Round:     15 * time.Second,
						Seed:      seeds[s],
					})
					if err != nil {
						t.Fatal(err)
					}
					runs[index(q)] = res
					points = append(points, q)
				}
			}
		}
	}

	for _, law := range consensusLaws {
		pairs := 0
		for _, q := range points {
			up := lawPoint{q.p, q.s, q.r + law.step.r, q.b + law.step.b}
			if up.r == size.r || up.b == size.b {
				continue
			}
			pairs++
			if err := law.check(runs[index(q)], runs[index(up)]); err != nil {
				t.Errorf("%s: %v, seed %d, %d -> %d relays, %g -> %g Mbit/s: %v", law.name, protocols[q.p],
					seeds[q.s], relays[q.r], relays[up.r], mbits[q.b], mbits[up.b], err)
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no pair of runs to check", law.name)
		}
	}
}

// TestOutageLadderFindsFiveMinutes finds the title's number instead of
// assuming it: at the outage golden's scale (300 relays, calibrated entries,
// a majority of authorities flooded to zero from the start) it runs outage
// lengths 0, 30 s, …, 10 min and bisects each ladder with the threshold
// searches' helper. The current protocol first fails at five minutes, the
// synchronous one at two and a half, and ICPS never. Each full ladder must
// be monotone, the helper's premise.
func TestOutageLadderFindsFiveMinutes(t *testing.T) {
	var ends []time.Duration
	for d := time.Duration(0); d <= 10*time.Minute; d += 30 * time.Second {
		ends = append(ends, d)
	}
	want := map[Protocol]time.Duration{Current: 5 * time.Minute, Synchronous: 150 * time.Second, ICPS: simnet.Never}
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		for _, seed := range []int64{1, 7} {
			ladder := make([]byte, len(ends))
			for i, end := range ends {
				plan := attack.FiveMinuteOutage(attack.MajorityTargets(9))
				plan.End = end
				ladder[i] = '.'
				if !mustRun(t, Scenario{Protocol: p, Relays: 300, EntryPadding: -1, Seed: seed, Attack: &plan}).Success {
					ladder[i] = 'F'
				}
			}
			i, _ := firstTurn(len(ends), func(i int) (bool, error) { return ladder[i] == 'F', nil })
			got := simnet.Never
			if i < len(ends) {
				got = ends[i]
			}
			if first := bytes.IndexByte(ladder, 'F'); first >= 0 && bytes.IndexByte(ladder[first:], '.') >= 0 {
				t.Errorf("%s seed %d: outage ladder %s is not monotone", p, seed, ladder)
			}
			if got != want[p] {
				t.Errorf("%s seed %d: first failing outage %v, want %v (ladder %s)", p, seed, got, want[p], ladder)
			}
		}
	}
}

// TestFigure7BandCause reads the cause of a run inside Figure 7's failure
// band, at quick and at paper scale: Current, the five flooded authorities
// at a residual above the first success, two rounds of flood. Each flooded
// authority's own vote reaches the four unflooded ones before the fetch, so
// those four fetch nothing and aggregate all nine votes, while each flooded
// one aggregates itself and the four unflooded: six camps, the largest
// holding 4 of the 5 signatures it needs.
func TestFigure7BandCause(t *testing.T) {
	for _, c := range []struct {
		relays int
		round  time.Duration
		mbit   float64
	}{
		{600, 15 * time.Second, 60 * 10.0 / 128}, // a rung of the -quick ladder
		{8000, 150 * time.Second, 8.9},
	} {
		plan := attack.Plan{Targets: attack.MajorityTargets(9), End: 2 * c.round, Residual: c.mbit * 1e6}
		res := mustRun(t, Scenario{Protocol: Current, Relays: c.relays, EntryPadding: -1, Round: c.round, Attack: &plan})
		if res.Success {
			t.Fatalf("%d relays at %g Mbit/s: the run succeeded inside the failure band", c.relays, c.mbit)
		}
		digests := map[sig.Digest]bool{}
		for i, r := range res.Records {
			voters, sigs := []int{i, 5, 6, 7, 8}, 1
			if i >= 5 {
				voters, sigs = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 4
			}
			if r.Consensus == nil {
				t.Fatalf("%d relays: authority %d aggregated no consensus", c.relays, i)
			}
			if !slices.Equal(r.Consensus.Voters, voters) || r.Sigs != sigs || r.Published {
				t.Fatalf("%d relays: authority %d aggregated votes %v with %d signatures (published %v), want %v with %d",
					c.relays, i, r.Consensus.Voters, r.Sigs, r.Published, voters, sigs)
			}
			digests[r.Consensus.Digest()] = true
		}
		if len(digests) != 6 {
			t.Errorf("%d relays: %d distinct digests, want 6", c.relays, len(digests))
		}
		want := "6 camps by digest; the largest, authorities [5 6 7 8], holds 4 of the 5 signatures a consensus needs; authorities [0 1 2 3 4] aggregated 5 of 9 votes"
		if got := res.Cause(); got != want {
			t.Errorf("%d relays: cause\n%s\nwant\n%s", c.relays, got, want)
		}
	}
}
