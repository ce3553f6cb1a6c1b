package harness

import (
	"strings"
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
)

func TestAblationEntrySizeThresholdScalesInversely(t *testing.T) {
	r, err := AblationEntrySize(bg, EntrySizeParams{
		EntrySizes:    []int{625, 2500},
		RelayCounts:   []int{500, 1000, 2000, 4000, 8000},
		BandwidthMbit: 10,
		Round:         15 * time.Second,
	}, sweep.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	small, big := r.Rows[0], r.Rows[1]
	if small.EntryBytes != 625 || big.EntryBytes != 2500 {
		t.Fatalf("rows out of order: %+v", r.Rows)
	}
	if big.ThresholdRelays == 0 {
		t.Fatal("no failure threshold found for 2500B entries")
	}
	if small.ThresholdRelays != 0 && small.ThresholdRelays <= big.ThresholdRelays {
		t.Fatalf("smaller entries should fail later: 625B@%d vs 2500B@%d",
			small.ThresholdRelays, big.ThresholdRelays)
	}
	if !strings.Contains(r.Render(), "entry size") {
		t.Fatal("render missing title")
	}
}

func TestAblationDeltaBindsOnlyUnderFaults(t *testing.T) {
	r, err := AblationDelta(bg, DeltaParams{
		Deltas: []time.Duration{2 * time.Second, 20 * time.Second},
		Relays: 200,
	}, sweep.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 || !r.Rows[1].Crash || r.Rows[2].Crash {
		t.Fatalf("want 2 crashed rows then 2 healthy ones, got %+v", r.Rows)
	}
	crashed, healthy := r.Rows[:2], r.Rows[2:]
	// With a crashed authority, latency tracks Δ.
	if crashed[1].Latency <= crashed[0].Latency {
		t.Fatalf("latency did not grow with Δ under a crash: %v vs %v",
			crashed[0].Latency, crashed[1].Latency)
	}
	if crashed[1].Latency < 20*time.Second {
		t.Fatalf("latency %v below Δ=20s; Δ not respected", crashed[1].Latency)
	}
	for _, row := range crashed {
		if row.OKCount != 8 {
			t.Fatalf("crash sweep OKCount=%d, want 8", row.OKCount)
		}
	}
	// Healthy control: Δ must not bind (all documents arrive first).
	for _, row := range healthy {
		if row.Latency >= 20*time.Second {
			t.Fatalf("healthy latency %v bound by Δ", row.Latency)
		}
		if row.OKCount != 9 {
			t.Fatalf("healthy OKCount=%d", row.OKCount)
		}
	}
	if !strings.Contains(r.Render(), "Δ") {
		t.Fatal("render missing title")
	}
}

func TestAblationTimeoutRecoveryInsensitive(t *testing.T) {
	r, err := AblationTimeout(bg, TimeoutParams{
		BaseTimeouts: []time.Duration{5 * time.Second, 80 * time.Second},
		Outage:       30 * time.Second,
		Relays:       150,
	}, sweep.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Recovery == simnet.Never {
			t.Fatalf("no recovery with base timeout %v", row.BaseTimeout)
		}
		if row.Recovery > 15*time.Second {
			t.Fatalf("recovery %v with base timeout %v; want a few seconds", row.Recovery, row.BaseTimeout)
		}
	}
	// Insensitivity: the two recoveries are within a small factor.
	a, b := r.Rows[0].Recovery, r.Rows[1].Recovery
	if a > 4*b || b > 4*a {
		t.Fatalf("recovery wildly sensitive to timeout: %v vs %v", a, b)
	}
	if !strings.Contains(r.Render(), "base timeout") {
		t.Fatal("render missing title")
	}
}
