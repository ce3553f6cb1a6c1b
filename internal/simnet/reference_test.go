package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// This file is the reference kernel's scheduler and links, and the pipe
// differential. A refLink is a processor-sharing pipe written the naive way:
// every transfer keeps its own remaining bits and every step walks all of
// them, with no heap, no served counter and no state carried between steps.
// It steps only at its own arrivals, breakpoints and finishes, and keeps one
// wakeup queued, deleted and queued anew wherever its instant changes. A
// seeded generator builds small pipe scenarios, and the kernel's pipes must
// complete every transfer within a nanosecond of the reference, in the same
// order, and conserve bits at every quiescent instant.

// refSched keeps its events sorted by (instant, sequence): a slice in which
// an event goes after every one queued before it at the same instant.
type refSched struct {
	now      time.Duration
	queue    []refEvent
	executed uint64
}

type refEvent struct {
	at   time.Duration
	fn   func()
	link *refLink // whose wakeup this is; nil for any other event
}

// at queues fn at t; at Never it queues nothing.
func (s *refSched) at(t time.Duration, fn func()) { s.queueEvent(refEvent{at: t, fn: fn}) }

func (s *refSched) queueEvent(ev refEvent) {
	if ev.at != Never {
		i := sort.Search(len(s.queue), func(i int) bool { return s.queue[i].at > ev.at })
		s.queue = slices.Insert(s.queue, i, ev)
	}
}

func (s *refSched) run(limit time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= limit {
		ev := s.queue[0]
		s.queue, s.now = s.queue[1:], ev.at
		s.executed++
		ev.fn()
	}
	s.now = max(s.now, limit)
}

type refLink struct {
	s       *refSched
	prof    *Profile
	flights []refFlight // fewest bits left first, ties in arrival order
	last    time.Duration
	moved   float64
}

type refFlight struct {
	remaining float64
	done      func()
}

func (l *refLink) enqueue(bytes int64, done func()) {
	l.advance()
	bits := sizeBits(bytes)
	i := sort.Search(len(l.flights), func(i int) bool { return l.flights[i].remaining > bits })
	l.flights = slices.Insert(l.flights, i, refFlight{bits, done})
	l.plan()
}

// step returns how far the link steps from t toward limit (to the next
// breakpoint, limit, or the finish of a transfer with rem bits left, rounded
// up to the nanosecond) and its rate over the step.
func (l *refLink) step(t, limit time.Duration, rem float64) (time.Duration, float64) {
	end := min(l.prof.nextChange(t), limit)
	rate := l.prof.RateAt(t)
	if rate <= 0 {
		return end - t, 0
	}
	return min(end-t, durCeil(rem/(rate/float64(len(l.flights))))), rate
}

// advance steps the link to now. A step takes the same bits from every
// transfer, so their order holds, and those left with at most epsBits
// complete at now.
func (l *refLink) advance() {
	for now := l.s.now; l.last < now && len(l.flights) > 0; {
		step, rate := l.step(l.last, now, l.flights[0].remaining)
		l.last += step
		l.moved += float64(rate * seconds(step))
		for i := range l.flights {
			l.flights[i].remaining -= float64(rate / float64(len(l.flights)) * seconds(step))
		}
		for len(l.flights) > 0 && l.flights[0].remaining <= epsBits {
			l.s.at(now, l.flights[0].done)
			l.flights = l.flights[1:]
		}
	}
	l.last = max(l.last, l.s.now)
}

// plan keeps the link's one wakeup at the instant stepping would first
// complete a transfer, deleting it and queueing it anew if that changed.
func (l *refLink) plan() {
	at := Never
	if len(l.flights) > 0 {
		for t, rem := l.last, l.flights[0].remaining; t < Never; {
			step, rate := l.step(t, Never, rem)
			t += step
			if rem -= float64(rate / float64(len(l.flights)) * seconds(step)); rem <= epsBits {
				at = t
				break
			}
		}
	}
	if i := slices.IndexFunc(l.s.queue, func(ev refEvent) bool { return ev.link == l }); i >= 0 {
		if l.s.queue[i].at == at {
			return
		}
		l.s.queue = slices.Delete(l.s.queue, i, i+1)
	}
	l.s.queueEvent(refEvent{at: at, fn: func() { l.advance(); l.plan() }, link: l})
}

// refArrival is one transfer offered to a pipe; its index in the arrival
// list is its id.
type refArrival struct {
	at    time.Duration
	bytes int64
}

// transferID is a transfer's index in its pipe's arrival list.
type transferID int

func (id transferID) String() string { return fmt.Sprintf("transfer %d", int(id)) }

// refDone is one completion: which transfer or message, and when.
type refDone[K comparable] struct {
	id K
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

// referencePipe plays arrivals through one refLink up to limit+refSlack
// and returns every completion in the order it ran.
func referencePipe(prof *Profile, arrivals []refArrival, limit time.Duration) []refDone[transferID] {
	var s refSched
	l := &refLink{s: &s, prof: prof}
	var done []refDone[transferID]
	for id, a := range arrivals {
		s.at(a.at, func() { l.enqueue(a.bytes, func() { done = append(done, refDone[transferID]{transferID(id), s.now}) }) })
	}
	s.run(limit + refSlack)
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
func kernelRun(sc pipeScenario, final bool) (done [][]refDone[transferID], worst float64) {
	s := NewScheduler()
	if final {
		s.end = sc.limit
	}
	pipes := make([]*pipe, len(sc.pipes))
	enqueued := make([]float64, len(sc.pipes))
	parked := make([]float64, len(sc.pipes))
	peak := make([]float64, len(sc.pipes)) // the profile's highest rate
	done = make([][]refDone[transferID], len(sc.pipes))
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
				if !p.enqueue(a.bytes, doneFunc(func(at time.Duration) { done[i] = append(done[i], refDone[transferID]{transferID(id), at}) })) {
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
					err := sameCompletions(got[i], want, sc.limit)
					if err == nil {
						err = inArrivalOrder(got[i], pc.arrivals)
					}
					if err != nil {
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
// reference instants are within 1 ns, and every completion the reference
// runs before the limit must run.
func sameCompletions[K comparable](got, want []refDone[K], limit time.Duration) error {
	ref := make(map[K]time.Duration, len(want))
	for _, w := range want {
		ref[w.id] = w.at
	}
	prev := time.Duration(0)
	for _, g := range got {
		r, ok := ref[g.id]
		switch {
		case !ok:
			return fmt.Errorf("%v completed at %v; the reference never completes it", g.id, g.at)
		case g.at-r > 1 || r-g.at > 1:
			return fmt.Errorf("%v completed at %v; the reference completes it at %v", g.id, g.at, r)
		case r < prev-1:
			return fmt.Errorf("%v (reference %v) ran after one the reference completes at %v", g.id, r, prev)
		}
		prev = max(prev, r)
		delete(ref, g.id)
	}
	for _, w := range want {
		if _, left := ref[w.id]; left && w.at < limit {
			return fmt.Errorf("the reference completes %v at %v; the kernel never does", w.id, w.at)
		}
	}
	return nil
}

// inArrivalOrder reports identical transfers (one instant, one size) that
// completed out of arrival order.
func inArrivalOrder(got []refDone[transferID], arrivals []refArrival) error {
	last := make(map[refArrival]transferID) // the last completed of each identical set
	for _, g := range got {
		if id, ok := last[arrivals[g.id]]; ok && id > g.id {
			return fmt.Errorf("%v completed after the identical %v, which arrived later", g.id, id)
		}
		last[arrivals[g.id]] = g.id
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
