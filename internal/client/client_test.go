package client

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy()
	if p.Interval != time.Hour || p.ValidFor != 3*time.Hour {
		t.Fatalf("policy %+v", p)
	}
}

func TestAllRunsSucceedNoOutage(t *testing.T) {
	tl := HourlySchedule(DefaultPolicy(), 24, func(int) bool { return true })
	if len(tl.Outages()) != 0 {
		t.Fatalf("outages on a healthy day: %v", tl.Outages())
	}
	if tl.DownTime() != 0 || tl.Availability() != 1 {
		t.Fatalf("downtime %v availability %f", tl.DownTime(), tl.Availability())
	}
	if tl.FirstOutage() != -1 {
		t.Fatalf("FirstOutage=%v", tl.FirstOutage())
	}
	if !tl.ValidAt(5 * time.Hour) {
		t.Fatal("validity wrong on healthy timeline")
	}
}

// attackedFrom is the paper's headline schedule: every hourly run from hour
// first onward fails (five minutes of DDoS per run is enough, §4).
func attackedFrom(first int) func(int) bool {
	return func(i int) bool { return i < first }
}

func TestSustainedAttackHaltsAfterThreeHours(t *testing.T) {
	// Success at hour 0, every later run attacked: the last consensus is
	// generated at t=0 and expires 3 hours later — "a sustained lack of
	// consensus documents for as little as three hours renders the whole
	// network invalid" (§3.1).
	tl := HourlySchedule(DefaultPolicy(), 12, attackedFrom(1))
	first := tl.FirstOutage()
	if first != 3*time.Hour {
		t.Fatalf("network died at %v, want 3h", first)
	}
	if tl.ValidAt(2*time.Hour + 59*time.Minute) {
		// still valid just before expiry
	} else {
		t.Fatal("consensus invalid before the 3h expiry")
	}
	if tl.ValidAt(3 * time.Hour) {
		t.Fatal("consensus valid at expiry instant")
	}
	// From hour 3 to the horizon (hour 12) the network is down.
	if got, want := tl.DownTime(), 9*time.Hour; got != want {
		t.Fatalf("downtime %v, want %v", got, want)
	}
	if tl.Availability() >= 1 {
		t.Fatal("availability did not drop")
	}
}

func TestIntermittentFailuresBridgedByValidity(t *testing.T) {
	// Two consecutive failures are bridged by the 3-hour validity; a third
	// in a row is not.
	twoFails := HourlySchedule(DefaultPolicy(), 8, func(i int) bool {
		return i != 3 && i != 4 // fail hours 3,4
	})
	if len(twoFails.Outages()) != 0 {
		t.Fatalf("two consecutive failures caused an outage: %v", twoFails.Outages())
	}
	threeFails := HourlySchedule(DefaultPolicy(), 8, func(i int) bool {
		return i < 3 || i > 5 // fail hours 3,4,5
	})
	outs := threeFails.Outages()
	if len(outs) != 1 {
		t.Fatalf("outages: %v, want exactly one", outs)
	}
	// Last success at hour 2 → down at hour 5; recovery at hour 6.
	if outs[0].From != 5*time.Hour || outs[0].To != 6*time.Hour {
		t.Fatalf("outage window %v, want [5h, 6h)", outs[0])
	}
}

func TestRecoveryRestoresAvailability(t *testing.T) {
	// Attack for 6 hours, then the operators deploy the partially
	// synchronous protocol and every run succeeds again.
	tl := HourlySchedule(DefaultPolicy(), 12, func(i int) bool {
		return i == 0 || i >= 7
	})
	outs := tl.Outages()
	if len(outs) != 1 {
		t.Fatalf("outages %v", outs)
	}
	if outs[0].From != 3*time.Hour || outs[0].To != 7*time.Hour {
		t.Fatalf("outage %v, want [3h, 7h)", outs[0])
	}
	if !tl.ValidAt(8 * time.Hour) {
		t.Fatal("not valid after recovery")
	}
}

func TestNeverSucceededAlwaysDown(t *testing.T) {
	tl := HourlySchedule(DefaultPolicy(), 4, func(int) bool { return false })
	if tl.FirstOutage() != 0 {
		t.Fatalf("FirstOutage=%v, want 0", tl.FirstOutage())
	}
	if tl.Availability() != 0 {
		t.Fatalf("availability=%f, want 0", tl.Availability())
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := NewTimeline(DefaultPolicy(), nil)
	if tl.Horizon() != 0 || tl.DownTime() != 0 || tl.Availability() != 1 {
		t.Fatal("empty timeline misbehaves")
	}
}

func TestUnsortedRunsAreSorted(t *testing.T) {
	p := DefaultPolicy()
	tl := NewTimeline(p, []Run{
		{At: 2 * time.Hour, Success: true},
		{At: 0, Success: true},
		{At: time.Hour, Success: false},
	})
	if tl.Runs[0].At != 0 || tl.Runs[2].At != 2*time.Hour {
		t.Fatal("runs not sorted")
	}
}

func TestQuickDowntimeNeverExceedsHorizon(t *testing.T) {
	p := DefaultPolicy()
	f := func(pattern uint16) bool {
		tl := HourlySchedule(p, 16, func(i int) bool { return pattern&(1<<i) != 0 })
		dt := tl.DownTime()
		if dt < 0 || dt > tl.Horizon() {
			return false
		}
		av := tl.Availability()
		return av >= 0 && av <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMoreFailuresNeverLessDowntime(t *testing.T) {
	// Removing a success from a timeline can only increase downtime.
	p := DefaultPolicy()
	f := func(pattern uint16, drop uint8) bool {
		base := HourlySchedule(p, 16, func(i int) bool { return pattern&(1<<i) != 0 })
		d := int(drop) % 16
		worse := HourlySchedule(p, 16, func(i int) bool {
			return i != d && pattern&(1<<i) != 0
		})
		return worse.DownTime() >= base.DownTime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRunsTimeline(t *testing.T) {
	tl := NewTimeline(DefaultPolicy(), []Run{})
	if tl.ValidAt(0) {
		t.Fatal("validity without any run")
	}
	if outs := tl.Outages(); len(outs) != 0 {
		t.Fatalf("outage windows on an empty observation span: %v", outs)
	}
	if tl.FirstOutage() != -1 {
		t.Fatalf("FirstOutage=%v on zero runs", tl.FirstOutage())
	}
	if tl.Availability() != 1 {
		t.Fatalf("availability=%f on zero horizon", tl.Availability())
	}
}

func TestAllFailedRunsSingleFullOutage(t *testing.T) {
	p := DefaultPolicy()
	tl := HourlySchedule(p, 6, func(int) bool { return false })
	outs := tl.Outages()
	if len(outs) != 1 {
		t.Fatalf("outages %v, want one full-span window", outs)
	}
	if outs[0].From != 0 || outs[0].To != tl.Horizon() {
		t.Fatalf("outage %v, want [0, %v)", outs[0], tl.Horizon())
	}
	if tl.DownTime() != tl.Horizon() {
		t.Fatalf("downtime %v != horizon %v", tl.DownTime(), tl.Horizon())
	}
	if tl.ValidAt(0) || tl.ValidAt(tl.Horizon()-time.Nanosecond) {
		t.Fatal("document considered usable despite universal failure")
	}
}

func TestOutOfOrderRunsEquivalentToSorted(t *testing.T) {
	p := DefaultPolicy()
	sorted := []Run{
		{At: 0, Success: true},
		{At: time.Hour, Success: false},
		{At: 2 * time.Hour, Success: false},
		{At: 3 * time.Hour, Success: false},
		{At: 4 * time.Hour, Success: true},
		{At: 5 * time.Hour, Success: false},
	}
	shuffled := []Run{sorted[4], sorted[1], sorted[5], sorted[0], sorted[3], sorted[2]}
	a, b := NewTimeline(p, sorted), NewTimeline(p, shuffled)
	if a.Horizon() != b.Horizon() || a.DownTime() != b.DownTime() {
		t.Fatalf("order changed the outcome: %v vs %v downtime", a.DownTime(), b.DownTime())
	}
	ao, bo := a.Outages(), b.Outages()
	if len(ao) != len(bo) {
		t.Fatalf("outage windows diverge: %v vs %v", ao, bo)
	}
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("window %d diverges: %v vs %v", i, ao[i], bo[i])
		}
	}
	// Last success at 4h: down exactly during [3h, 4h) and nowhere else
	// within the horizon.
	if len(ao) != 1 || ao[0] != (Window{From: 3 * time.Hour, To: 4 * time.Hour}) {
		t.Fatalf("outages %v, want [3h, 4h)", ao)
	}
}

func TestSustainedAttackWindowsMatchValidForCutoff(t *testing.T) {
	// The availability windows under a sustained attack must track the
	// ValidFor lifetime exactly, whatever its value.
	for _, validFor := range []time.Duration{2 * time.Hour, 3 * time.Hour, 5 * time.Hour} {
		p := Policy{Interval: time.Hour, ValidFor: validFor}
		const hours = 12
		tl := HourlySchedule(p, hours, attackedFrom(2)) // hours 0,1 succeed, rest attacked
		outs := tl.Outages()
		if len(outs) != 1 {
			t.Fatalf("ValidFor=%v: outages %v", validFor, outs)
		}
		// Last success at hour 1; the cutoff is exactly 1h + ValidFor.
		want := Window{From: time.Hour + validFor, To: tl.Horizon()}
		if outs[0] != want {
			t.Fatalf("ValidFor=%v: outage %v, want %v", validFor, outs[0], want)
		}
		if !tl.ValidAt(want.From - time.Nanosecond) {
			t.Fatalf("ValidFor=%v: invalid just before the cutoff", validFor)
		}
		if tl.ValidAt(want.From) {
			t.Fatalf("ValidFor=%v: still valid at the cutoff instant", validFor)
		}
	}
}

func TestWindowString(t *testing.T) {
	w := Window{From: time.Hour, To: 2 * time.Hour}
	if w.Duration() != time.Hour || w.String() == "" {
		t.Fatal("window helpers broken")
	}
}
