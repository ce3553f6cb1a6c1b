package simnet

import (
	"strings"
	"testing"
	"time"
)

func TestProfileCloneIsolation(t *testing.T) {
	p := NewProfile(10e6)
	c := p.Clone()
	c.SetRate(0, time.Minute, 1e6)
	if p.RateAt(30*time.Second) != 10e6 {
		t.Fatal("Clone shares state with the original")
	}
	if c.RateAt(30*time.Second) != 1e6 {
		t.Fatal("Clone did not take the new rate")
	}
}

func TestProfileString(t *testing.T) {
	p := NewProfile(10e6)
	p.SetRate(5*time.Minute, 10*time.Minute, 0.5e6)
	s := p.String()
	if !strings.Contains(s, "10Mbit") || !strings.Contains(s, "0.5Mbit") {
		t.Fatalf("String()=%q", s)
	}
}

func TestProfileNegativeRatesClamped(t *testing.T) {
	p := NewProfile(-5)
	if p.RateAt(0) != 0 {
		t.Fatal("negative base rate not clamped")
	}
	p2 := NewProfile(1e6)
	p2.SetRate(0, time.Minute, -1)
	if p2.RateAt(0) != 0 {
		t.Fatal("negative SetRate not clamped")
	}
	p2.ThrottleMin(0, time.Minute, -1)
	if p2.RateAt(0) != 0 {
		t.Fatal("negative throttle not clamped")
	}
}

func TestProfileEmptyWindowNoop(t *testing.T) {
	p := NewProfile(7e6)
	p.SetRate(time.Minute, time.Minute, 0)
	p.SetRate(2*time.Minute, time.Minute, 0)
	for _, at := range []time.Duration{0, time.Minute, 3 * time.Minute} {
		if p.RateAt(at) != 7e6 {
			t.Fatalf("empty window changed rate at %v", at)
		}
	}
}

func TestNetworkSelfSendPanics(t *testing.T) {
	net, a, _ := twoNodeNet(t, 1e6, 0)
	a.onStart = func(ctx *Context) {
		defer func() {
			if recover() == nil {
				t.Error("self-send did not panic")
			}
		}()
		ctx.Send(0, testMsg{size: 1, kind: "t"})
	}
	net.Run(time.Second)
}

func TestNetworkAddNodeAfterStartPanics(t *testing.T) {
	net, _, _ := twoNodeNet(t, 1e6, 0)
	net.Start()
	defer func() {
		if recover() == nil {
			t.Error("AddNode after Start did not panic")
		}
	}()
	net.AddNode(&recorder{}, NewProfile(1e6), NewProfile(1e6))
}

func TestNetworkDoubleStartPanics(t *testing.T) {
	net, _, _ := twoNodeNet(t, 1e6, 0)
	net.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	net.Start()
}

func TestZeroSizeMessageDelivered(t *testing.T) {
	net, a, b := twoNodeNet(t, 1e6, 0)
	a.onStart = func(ctx *Context) { ctx.Send(1, testMsg{size: 0, kind: "ping"}) }
	net.Run(time.Second)
	if len(b.got) != 1 {
		t.Fatal("zero-size message lost")
	}
}

func TestAddDurSaturation(t *testing.T) {
	if addDur(Never, time.Second) != Never {
		t.Fatal("Never + d != Never")
	}
	if addDur(time.Second, Never) != Never {
		t.Fatal("d + Never != Never")
	}
	if addDur(Never-1, 2) != Never {
		t.Fatal("overflow not saturated")
	}
	if addDur(time.Second, time.Second) != 2*time.Second {
		t.Fatal("plain addition broken")
	}
}

func TestDurCeil(t *testing.T) {
	if durCeil(0) != 1 {
		t.Fatal("zero seconds must round up to 1ns")
	}
	if durCeil(1.5) != 1500*time.Millisecond {
		t.Fatalf("durCeil(1.5)=%v", durCeil(1.5))
	}
	if durCeil(1e300) != Never {
		t.Fatal("huge durations must saturate at Never")
	}
}
