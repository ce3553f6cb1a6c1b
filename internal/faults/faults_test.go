package faults

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/simnet"
)

func TestFaultValidate(t *testing.T) {
	min := time.Minute
	cases := []struct {
		name string
		f    Fault
		ok   bool
	}{
		{"crash ok", Fault{Kind: Crash, Tier: attack.TierCache, Targets: []int{1}, Start: 0, End: min}, true},
		{"authority crash ok", Fault{Kind: Crash, Targets: []int{0}, Start: 0, End: min}, true},
		{"empty window", Fault{Kind: Crash, Targets: []int{0}, Start: min, End: min}, false},
		{"inverted window", Fault{Kind: Crash, Targets: []int{0}, Start: min, End: 0}, false},
		{"negative start", Fault{Kind: Crash, Targets: []int{0}, Start: -1, End: min}, false},
		{"negative target", Fault{Kind: Crash, Targets: []int{-1}, Start: 0, End: min}, false},
		{"churn ok", Fault{Kind: Churn, Tier: attack.TierCache, Targets: []int{2}, Start: 0, End: min}, true},
		{"churn on authorities", Fault{Kind: Churn, Tier: attack.TierAuthority, Targets: []int{0}, Start: 0, End: min}, false},
		{"unknown kind", Fault{Kind: Kind(99), Targets: []int{0}, Start: 0, End: min}, false},
		{"unknown tier", Fault{Kind: Crash, Tier: attack.Tier(9), Targets: []int{0}, Start: 0, End: min}, false},
	}
	for _, tc := range cases {
		err := tc.f.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Crash: "crash", Churn: "churn"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Second, Cap: time.Minute, Jitter: 0}
	want := []time.Duration{
		10 * time.Second, 20 * time.Second, 40 * time.Second,
		time.Minute, time.Minute, time.Minute, // capped from attempt 3 on
	}
	for attempt, w := range want {
		if d := b.Delay(attempt, nil); d != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, d, w)
		}
	}
}

func TestBackoffDelayJitterBounds(t *testing.T) {
	b := Backoff{}.WithDefaults() // Base 15s, Cap 4m, Jitter 0.5
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 12; attempt++ {
		flat := Backoff{Base: b.Base, Cap: b.Cap, Jitter: 0}
		full := flat.Delay(attempt, nil)
		lo := time.Duration(float64(full) * (1 - b.Jitter))
		for i := 0; i < 50; i++ {
			d := b.Delay(attempt, rng)
			if d < lo || d >= full {
				t.Fatalf("Delay(%d) = %v outside jitter band [%v, %v)", attempt, d, lo, full)
			}
		}
	}
}

func TestBackoffDelayDeterministic(t *testing.T) {
	b := Backoff{}.WithDefaults()
	a := rand.New(rand.NewSource(7))
	c := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 8; attempt++ {
		if d1, d2 := b.Delay(attempt, a), b.Delay(attempt, c); d1 != d2 {
			t.Fatalf("same seed, different delays at attempt %d: %v vs %v", attempt, d1, d2)
		}
	}
}

func TestBackoffDelayAllocFree(t *testing.T) {
	b := Backoff{}.WithDefaults()
	rng := rand.New(rand.NewSource(3))
	attempt := 0
	if n := testing.AllocsPerRun(200, func() {
		_ = b.Delay(attempt%9, rng)
		attempt++
	}); n != 0 {
		t.Fatalf("Delay allocates %g per call on the retry hot path, want 0", n)
	}
}

func TestBackoffValidate(t *testing.T) {
	good := Backoff{}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []Backoff{
		{Base: -time.Second, Cap: time.Minute, Jitter: 0.5},
		{Base: time.Minute, Cap: time.Second, Jitter: 0.5},
		{Base: time.Second, Cap: time.Minute, Jitter: 1.5},
		{Base: time.Second, Cap: time.Minute, Jitter: -0.5},
		{Base: time.Second, Cap: time.Minute, Jitter: math.NaN()},
		{Base: time.Second, Cap: time.Minute, Jitter: 0.5, Budget: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad config %d passed validation: %+v", i, b)
		}
	}
}

func TestSpreadTargets(t *testing.T) {
	cases := []struct {
		first, n, count int
		want            []int
	}{
		{1, 20, 6, []int{1, 4, 7, 10, 13, 16}},
		{2, 20, 4, []int{2, 6, 11, 15}},
		{0, 10, 10, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{0, 4, 10, []int{0, 1, 2, 3}}, // clamped to the span
		{5, 5, 3, nil},                // empty span
		{0, 10, 0, nil},
	}
	for _, tc := range cases {
		got := SpreadTargets(tc.first, tc.n, tc.count)
		if len(got) != len(tc.want) {
			t.Errorf("SpreadTargets(%d,%d,%d) = %v, want %v", tc.first, tc.n, tc.count, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SpreadTargets(%d,%d,%d) = %v, want %v", tc.first, tc.n, tc.count, got, tc.want)
				break
			}
		}
	}
}

func TestWorstMTTR(t *testing.T) {
	if w := WorstMTTR(nil); w != 0 {
		t.Errorf("WorstMTTR(nil) = %v, want 0", w)
	}
	rs := []Recovery{{MTTR: 10 * time.Second}, {MTTR: 0}, {MTTR: 3 * time.Minute}}
	if w := WorstMTTR(rs); w != 3*time.Minute {
		t.Errorf("WorstMTTR = %v, want 3m", w)
	}
	rs = append(rs, Recovery{MTTR: simnet.Never})
	if w := WorstMTTR(rs); w != simnet.Never {
		t.Errorf("WorstMTTR with a stranded fault = %v, want Never", w)
	}
}

func TestMidWindowChaos(t *testing.T) {
	if p := MidWindowChaos(12, 30*time.Minute, 0, 0); p != nil {
		t.Errorf("both fractions zero built %+v, want nil", p)
	}
	for _, tc := range []struct {
		n            int
		window       time.Duration
		crash, churn float64
		counts       []int // targets per fault, in plan order
	}{
		{12, 30 * time.Minute, 0.3, 0, []int{4}},
		{12, 10 * time.Minute, 0, 0.2, []int{2}},
		{12, 10 * time.Minute, 0.3, 0.2, []int{4, 2}},
		{20, 6 * time.Minute, 0.3, 0.2, []int{6, 4}},
		{8, time.Hour, 0.01, 0.01, []int{1, 1}}, // a positive fraction hits at least one mirror
		{5, time.Hour, 1, 1, []int{4, 3}},       // clamped to the mirrors the spread may hit
	} {
		p := MidWindowChaos(tc.n, tc.window, tc.crash, tc.churn)
		if p == nil || len(p.Faults) != len(tc.counts) {
			t.Errorf("%+v: plan %+v, want %d faults", tc, p, len(tc.counts))
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", tc, err)
		}
		for i, f := range p.Faults {
			first, start, end := 1, tc.window/6, tc.window/6+tc.window/4
			if f.Kind == Churn {
				first, start, end = 2, tc.window/4, tc.window/2
			} else if f.Kind != Crash {
				t.Errorf("%+v: fault %d is a %v", tc, i, f.Kind)
			}
			if f.Tier != attack.TierCache || f.Start != start || f.End != end {
				t.Errorf("%+v: %v on tier %v over [%v, %v), want the cache tier over [%v, %v)", tc, f.Kind, f.Tier, f.Start, f.End, start, end)
			}
			if len(f.Targets) != tc.counts[i] {
				t.Errorf("%+v: %v hits %v, want %d targets", tc, f.Kind, f.Targets, tc.counts[i])
			}
			for _, target := range f.Targets {
				if target < first || target >= tc.n {
					t.Errorf("%+v: %v target %d outside [%d, %d)", tc, f.Kind, target, first, tc.n)
				}
			}
		}
	}

	// The plans behind cmd/cachesweep's chaos.golden (-caches 12 -faults 0,0.3
	// -churn 0,0.2 -window 10m) and cmd/tordirsim's distribution.golden
	// (-caches 12 -crash 0.3, the 30-minute default window), as the literals
	// the two commands assembled field by field before this constructor.
	window := 10 * time.Minute
	crash := Fault{Kind: Crash, Tier: attack.TierCache, Targets: SpreadTargets(1, 12, 4), Start: window / 6, End: window/6 + window/4}
	churn := Fault{Kind: Churn, Tier: attack.TierCache, Targets: SpreadTargets(2, 12, 2), Start: window / 4, End: window / 2}
	for _, tc := range []struct {
		crash, churn float64
		want         *Plan
	}{
		{0.3, 0, &Plan{Faults: []Fault{crash}}},
		{0, 0.2, &Plan{Faults: []Fault{churn}}},
		{0.3, 0.2, &Plan{Faults: []Fault{crash, churn}}},
	} {
		if got := MidWindowChaos(12, window, tc.crash, tc.churn); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("cachesweep cell fault=%g churn=%g: plan %+v, want %+v", tc.crash, tc.churn, got, tc.want)
		}
	}
	window = 30 * time.Minute
	want := &Plan{Faults: []Fault{{Kind: Crash, Tier: attack.TierCache, Targets: SpreadTargets(1, 12, 4), Start: window / 6, End: window/6 + window/4}}}
	if got := MidWindowChaos(12, window, 0.3, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("tordirsim -crash 0.3: plan %+v, want %+v", got, want)
	}
}
