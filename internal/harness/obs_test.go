package harness

import (
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/obs"
)

// TestRunSurfacesDetections runs a scaled-down Figure-10 flood with the full
// tracer pipeline installed and checks the end-to-end observability story:
// the recorder sees traffic from the consensus layer, and the detector —
// watching nothing but the victims' own pipe baselines — flags the flood
// strictly before the v3 schedule would declare the consensus lost.
func TestRunSurfacesDetections(t *testing.T) {
	round := 15 * time.Second
	plan := attack.Plan{
		Targets:  attack.MajorityTargets(9),
		Start:    0,
		End:      2 * time.Minute,
		Residual: 0.5e6,
	}
	rec := obs.NewRecorder(1 << 18)
	det := obs.NewDetector()
	res := mustRun(t, Scenario{
		Protocol:     Current,
		Relays:       300,
		EntryPadding: -1,
		Round:        round,
		Attack:       &plan,
		Seed:         3,
		Tracer:       obs.Tee(rec, det),
	})
	if res.Success {
		t.Fatal("majority flood should break consensus generation")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder saw no events")
	}
	if len(res.Detections) == 0 {
		t.Fatal("flood went undetected: RunResult.Detections is empty")
	}
	first, ok := obs.First(res.Detections)
	if !ok {
		t.Fatal("First found nothing in a non-empty detection list")
	}
	lost := 4 * round // the v3 monitor's final consensus check
	if first.At >= lost {
		t.Fatalf("first detection at %v, not before the consensus loss at %v", first.At, lost)
	}
	if first.Latency < 0 {
		t.Fatalf("detection %+v not scored against the attack onset", first)
	}
	if first.Latency != first.At-plan.Start {
		t.Fatalf("Latency %v inconsistent with At %v and onset %v", first.Latency, first.At, plan.Start)
	}
}

// TestRunNoFalsePositives pins the detector's other half: a healthy run of
// the same scenario must not flag anything.
func TestRunNoFalsePositives(t *testing.T) {
	det := obs.NewDetector()
	res := mustRun(t, Scenario{
		Protocol:     Current,
		Relays:       300,
		EntryPadding: -1,
		Round:        15 * time.Second,
		Seed:         3,
		Tracer:       det,
	})
	if !res.Success {
		t.Fatal("healthy run failed to reach consensus")
	}
	if len(res.Detections) != 0 {
		t.Fatalf("false positives on a healthy run: %v", res.Detections)
	}
}
