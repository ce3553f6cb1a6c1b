package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// checkGolden runs the command, wants exit status 0 and compares stdout byte
// for byte with testdata/<name>.golden.
func checkGolden(t *testing.T, name, args string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run(strings.Fields(args), &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/%s.golden:\n%s", name, out.Bytes())
	}
}

// TestGoldenDistributionRun pins the report of one run through every tier —
// consensus, meshed caches, a mid-window crash, backoff fleets — byte for
// byte against the output of the binary before main became run.
func TestGoldenDistributionRun(t *testing.T) {
	checkGolden(t, "distribution", "-clients 20000 -caches 12 -relays 300 -gossip 3 -crash 0.3 -backoff")
}

// TestGoldenDetect pins the detector's verdict on a scaled-down Figure-10
// flood. The three detector lines are the ones the golden of this command's
// traced fork carried before the fork was folded back in, and those were
// captured from the binary whose detector was still configured through
// obs.DetectorConfig: neither move changed a detection. The run loses its
// consensus, with no authority holding the votes to aggregate one (the
// cause line, read off the run's records), and still exits 0: under
// -detect the exit status is the detector's verdict.
func TestGoldenDetect(t *testing.T) {
	checkGolden(t, "detect", "-protocol current -attack -relays 300 -round 15s -detect")
}

// TestDetectQuietOnHealthyRun: without -attack the detector must flag nothing,
// say so, and exit 0 — a detection there would be a false positive.
func TestDetectQuietOnHealthyRun(t *testing.T) {
	var out bytes.Buffer
	if code := run(strings.Fields("-relays 300 -round 15s -detect"), &out, io.Discard); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.Bytes())
	}
	if want := "detector: quiet (no attack, no false positives)\n"; !strings.HasSuffix(out.String(), want) {
		t.Errorf("output does not end in %q:\n%s", want, out.Bytes())
	}
}

// TestBadBandwidthExits2: a bandwidth that is not a positive number of
// Mbit/s is a usage error, not a run at the default or on a dead network.
func TestBadBandwidthExits2(t *testing.T) {
	for _, bw := range []string{"0", "-5", "NaN"} {
		var errOut bytes.Buffer
		if code := run([]string{"-bandwidth", bw}, io.Discard, &errOut); code != 2 {
			t.Errorf("-bandwidth %s: exit %d, want 2 (%s)", bw, code, errOut.String())
		}
	}
}

// TestBadRelaysExits2: a count, round or seed that the scenario would
// replace with a default, that would skip a phase or an attack, or that the
// harness would reject only once the run has started, is a usage error: exit
// 2 with one line on stderr, never a run of something else.
func TestBadRelaysExits2(t *testing.T) {
	for _, args := range []string{
		"-relays 0",
		"-relays -1",
		"-round 0",
		"-round -5s",
		"-seed 0",
		"-caches 0 -clients 20000",
		"-clients -5",
		"-attack -attack-minutes 0",
		"-attack -attack-minutes -5",
		"-attack -attack-minutes NaN",
		"-attack -attack-minutes 1e300",
		"-attack -attack-residual -1",
		"-attack -attack-residual NaN",
		"-clients 1000 -race -1",
		"-clients 1000 -gossip -2",
	} {
		var errOut bytes.Buffer
		code := run(strings.Fields(args), io.Discard, &errOut)
		if code != 2 || strings.Count(errOut.String(), "\n") != 1 || strings.Contains(errOut.String(), "panic:") {
			t.Errorf("%s: exit %d, want 2 and one line on stderr (%q)", args, code, errOut.String())
		}
	}
}
