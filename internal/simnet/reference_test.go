package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// This file is the pipe half of a reference kernel. referencePipe is a
// processor-sharing pipe written the naive way: every transfer keeps its own
// remaining bits and every step walks all of them, with no heap, no served
// counter and no state carried between steps. A seeded generator builds
// small scenarios, and the kernel's pipes must complete every transfer
// within a nanosecond of the reference, in the same order, and conserve
// bits at every quiescent instant.

// refArrival is one transfer offered to a pipe; its index in the arrival
// list is its id.
type refArrival struct {
	at    time.Duration
	bytes int64
}

// refDone is one completion: which transfer, and when.
type refDone struct {
	id int
	at time.Duration
}

// pipeCase is one generated pipe: its capacity profile (cloned per run, as
// a Profile carries a cursor) and its arrivals, sorted by instant.
type pipeCase struct {
	prof     *Profile
	arrivals []refArrival
}

// pipeScenario is a set of pipes on one scheduler, run to limit.
type pipeScenario struct {
	limit time.Duration
	pipes []pipeCase
}

// refSlack is how far past the limit the reference runs, so a completion
// the kernel places at the limit has a reference instant to compare with.
const refSlack = time.Microsecond

// referencePipe plays arrivals through prof up to limit+refSlack and
// returns every completion in instant order. Each step runs to the next
// arrival, profile breakpoint or earliest finish (rounded up to the
// nanosecond, as the model's clock is), takes (rate/n)·dt from every
// transfer, and completes those left with at most epsBits.
func referencePipe(prof *Profile, arrivals []refArrival, limit time.Duration) []refDone {
	type flight struct {
		id        int
		remaining float64
	}
	var active []flight
	var done []refDone
	end := limit + refSlack
	now, next := time.Duration(0), 0
	for now < end {
		for next < len(arrivals) && arrivals[next].at == now {
			active = append(active, flight{next, sizeBits(arrivals[next].bytes)})
			next++
		}
		stop := end
		if next < len(arrivals) {
			stop = min(stop, arrivals[next].at)
		}
		if len(active) == 0 {
			now = stop
			continue
		}
		step := min(stop, prof.nextChange(now)) - now
		rate := prof.RateAt(now)
		if rate <= 0 {
			now += step
			continue
		}
		share := rate / float64(len(active))
		first := math.Inf(1)
		for _, f := range active {
			first = min(first, f.remaining/share)
		}
		step = min(step, durCeil(first))
		now += step
		kept := active[:0]
		for _, f := range active {
			f.remaining -= float64(share * seconds(step))
			if f.remaining <= epsBits {
				done = append(done, refDone{f.id, now})
				continue
			}
			kept = append(kept, f)
		}
		active = kept
	}
	return done
}

// kernelRun plays the scenario through the kernel's pipes on one scheduler:
// final (the scheduler knows the run's end, so dead pipes park) or stepped
// (no end). It stops at every arrival instant and at the limit, and there
// checks each pipe's bit conservation: the bits enqueued equal the bits the
// pipe's meter moved, plus Σ(finish − served) over the transfers in flight,
// plus the bits parked. The meter counts what the link moved, and a
// transfer leaves with up to epsBits unmoved, or with up to a nanosecond of
// its share more than it needed (the clock rounds a finish up), so each
// completion is allowed epsBits + rate·1 ns. It returns each pipe's
// completions in the order they ran and the worst conservation error past
// that allowance, relative to the bits enqueued.
func kernelRun(sc pipeScenario, final bool) (done [][]refDone, worst float64) {
	s := NewScheduler()
	if final {
		s.end = sc.limit
	}
	pipes := make([]*pipe, len(sc.pipes))
	enqueued := make([]float64, len(sc.pipes))
	parked := make([]float64, len(sc.pipes))
	peak := make([]float64, len(sc.pipes)) // the profile's highest rate
	done = make([][]refDone, len(sc.pipes))
	stops := []time.Duration{sc.limit}
	for i, pc := range sc.pipes {
		p := newPipe(s, pc.prof.Clone())
		p.metered = true
		pipes[i] = p
		pc.prof.Each(func(_ time.Duration, rate float64) { peak[i] = max(peak[i], rate) })
		for id, a := range pc.arrivals {
			s.At(a.at, func() {
				bits := sizeBits(a.bytes)
				enqueued[i] += bits
				if !p.enqueue(a.bytes, doneFunc(func(at time.Duration) { done[i] = append(done[i], refDone{id, at}) })) {
					parked[i] += bits
				}
			})
			stops = append(stops, a.at)
		}
	}
	slices.Sort(stops)
	for _, stop := range slices.Compact(stops) {
		s.RunUntil(stop)
		for i, p := range pipes {
			inFlight := 0.0
			for _, tr := range p.active {
				inFlight += tr.finish - p.served
			}
			allowed := float64(len(done[i])) * (epsBits + float64(peak[i]*1e-9))
			if err := math.Abs(enqueued[i]-(p.moved+inFlight+parked[i])) - allowed; err > 0 {
				worst = max(worst, err/enqueued[i])
			}
		}
	}
	return done, worst
}

// genScenario builds three pipes from seed. Each has a base rate
// log-uniform from 100 kbit/s to 10 Gbit/s and one of four profiles —
// throttled windows (some to zero), dead from a point until past the end,
// dead forever from a point, or constant — one to three bursts of 128 to 327
// transfers (all at one instant or spread over a second, half of them drawn
// from three sizes, as a fleet's identical fetches are), and 20 scattered
// arrivals. Sizes are log-uniform from 1 B to 1 GB.
//
// The rates are not round decimals on purpose. At 10^k bit/s a share moves
// a decimal fraction of a bit per nanosecond, so finishes land exactly on
// nanosecond boundaries, and which side the rounding up takes is then the
// last bit of a float: the kernel and the reference, which round
// differently, part by a nanosecond, and the parting compounds.
func genScenario(seed int64) pipeScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := pipeScenario{limit: 10 * time.Minute}
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(sc.limit))) }
	for k := range 3 {
		rate := math.Pow(10, 5+5*rng.Float64())
		prof := NewProfile(rate)
		switch (int(seed) + k) % 4 {
		case 0:
			for range 1 + rng.Intn(3) {
				from := at()
				prof.ThrottleMin(from, from+time.Duration(rng.Int63n(int64(time.Minute))), rate*[]float64{0, 0.01, 0.1, 0.5}[rng.Intn(4)])
			}
		case 1:
			prof.SetRate(at()/2, sc.limit+time.Duration(1+rng.Intn(10))*time.Minute, 0)
		case 2:
			prof.SetRate(at(), Never, 0)
		}
		var arrivals []refArrival
		size := func() int64 { return int64(math.Exp(rng.Float64() * math.Log(1e9))) }
		for range 1 + rng.Intn(3) {
			burst, spread := at(), rng.Intn(2) == 0
			var sizes []int64 // a burst of identical fetches draws from three sizes
			if rng.Intn(2) == 0 {
				sizes = []int64{size(), size(), size()}
			}
			for range 128 + rng.Intn(200) {
				t, b := burst, size()
				if spread {
					t += time.Duration(rng.Int63n(int64(time.Second)))
				}
				if sizes != nil {
					b = sizes[rng.Intn(len(sizes))]
				}
				arrivals = append(arrivals, refArrival{min(t, sc.limit), b})
			}
		}
		for range 20 {
			arrivals = append(arrivals, refArrival{at(), size()})
		}
		slices.SortStableFunc(arrivals, func(a, b refArrival) int { return int(a.at - b.at) })
		sc.pipes = append(sc.pipes, pipeCase{prof, arrivals})
	}
	return sc
}

// busyHour is one pipe of about 10 Gbit/s kept busy for an hour: a 1 GB
// transfer every 800 ms, each needing a microsecond more than that, so one
// or two are in flight at a time, the pipe never drains, and served climbs
// to ~3.6e13 bits. It drains just after the hour, is throttled to about
// 1 kbit/s from 70 minutes, and takes 128 small transfers 97 ms apart from
// 71. Shares of ~8 bit/s make served's rounding visible: without the rebase
// at the drain, the step to each arrival, added to a served of the hour's
// size, rounds to a multiple of ~0.008 bit, which moves completions by up
// to a millisecond.
func busyHour() pipeScenario {
	const rate = 1e10 - 63
	prof := NewProfile(rate)
	prof.ThrottleMin(70*time.Minute, Never, 1e3-3)
	var arrivals []refArrival
	size := int64(math.Ceil(rate * 0.800001 / 8))
	for t := time.Duration(0); t < time.Hour; t += 800 * time.Millisecond {
		arrivals = append(arrivals, refArrival{t, size})
	}
	for j := range 128 {
		arrivals = append(arrivals, refArrival{71*time.Minute + time.Duration(j)*97*time.Millisecond, int64(1 + j*37%100)})
	}
	return pipeScenario{limit: 90 * time.Minute, pipes: []pipeCase{{prof, arrivals}}}
}

// pipeSeeds are the generated scenarios the tests run. Seed 235 is the
// first that leaves a transfer with less than epsBits at a breakpoint.
var pipeSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 235}

// pipeScenarios is the table the differential and conservation tests run:
// the busy hour and the generated seeds.
func pipeScenarios() map[string]pipeScenario {
	scs := map[string]pipeScenario{"busy hour": busyHour()}
	for _, seed := range pipeSeeds {
		scs[fmt.Sprintf("seed %d", seed)] = genScenario(seed)
	}
	return scs
}

func TestPipeMatchesReference(t *testing.T) {
	for name, sc := range pipeScenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, final := range []bool{false, true} {
				got, _ := kernelRun(sc, final)
				completed := 0
				for i, pc := range sc.pipes {
					want := referencePipe(pc.prof.Clone(), pc.arrivals, sc.limit)
					if err := sameCompletions(got[i], want, pc.arrivals, sc.limit); err != nil {
						t.Fatalf("final=%v, pipe %d: %v", final, i, err)
					}
					completed += len(got[i])
				}
				if completed == 0 {
					t.Fatalf("final=%v: nothing completed; the scenario exercises nothing", final)
				}
			}
		})
	}
}

// sameCompletions reports how the kernel's completions, in the order they
// ran, differ from the reference's: each instant must be within 1 ns of the
// reference's, a completion may run before an earlier one only if their
// reference instants are within 1 ns, identical transfers (one instant, one
// size) complete in arrival order, and every transfer the reference
// completes before the limit must complete.
func sameCompletions(got, want []refDone, arrivals []refArrival, limit time.Duration) error {
	ref := make(map[int]time.Duration, len(want))
	for _, w := range want {
		ref[w.id] = w.at
	}
	seen := make(map[int]bool, len(got))
	twin := make(map[refArrival]int) // the last completed id of each identical set
	prev := time.Duration(0)
	for _, g := range got {
		r, ok := ref[g.id]
		last, twinDone := twin[arrivals[g.id]]
		switch {
		case !ok:
			return fmt.Errorf("transfer %d completed at %v; the reference never completes it", g.id, g.at)
		case g.at-r > 1 || r-g.at > 1:
			return fmt.Errorf("transfer %d completed at %v; the reference completes it at %v", g.id, g.at, r)
		case r < prev-1:
			return fmt.Errorf("transfer %d (reference %v) ran after one the reference completes at %v", g.id, r, prev)
		case twinDone && last > g.id:
			return fmt.Errorf("transfer %d completed after the identical transfer %d, which arrived later", g.id, last)
		}
		twin[arrivals[g.id]] = g.id
		prev = max(prev, r)
		seen[g.id] = true
	}
	for _, w := range want {
		if w.at < limit && !seen[w.id] {
			return fmt.Errorf("the reference completes transfer %d at %v; the kernel never does", w.id, w.at)
		}
	}
	return nil
}

func TestPipeConservesBits(t *testing.T) {
	for name, sc := range pipeScenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, final := range []bool{false, true} {
				if _, worst := kernelRun(sc, final); worst > 1e-9 {
					t.Fatalf("final=%v: bits enqueued and bits moved + in flight + parked differ by %.3g of the enqueued", final, worst)
				}
			}
		})
	}
}
