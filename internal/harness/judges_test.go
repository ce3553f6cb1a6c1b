package harness

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"partialtor/internal/attack"
)

// TestBackgroundJudgesMatchInlineRuns: the three protocols, healthy and under
// the five-minute outage, at the consensus workloads' 300 relays. With a
// spare core each run's registry judges the signatures it signs on
// background goroutines; every one of them is gone shortly after RunE
// returns, and the run's digest equals that of the same run on one core,
// where the registry files nothing and every signature is judged inline.
// CI's race job runs it.
func TestBackgroundJudgesMatchInlineRuns(t *testing.T) {
	procs := max(runtime.GOMAXPROCS(0), 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	outage := attack.FiveMinuteOutage(attack.MajorityTargets(9))
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		for _, plan := range []*attack.Plan{nil, &outage} {
			s := Scenario{Protocol: p, N: 9, Relays: 300, EntryPadding: -1, Seed: 1, Attack: plan}
			t.Run(fmt.Sprintf("%v/attacked=%v", p, plan != nil), func(t *testing.T) {
				Inputs(s) // built on every core before the baseline is read
				baseline := runtime.NumGoroutine()
				judged := digestRun(t, s)
				for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines 10 s after the run, %d before it: a judge outlived its run", runtime.NumGoroutine(), baseline)
					}
				}

				runtime.GOMAXPROCS(1)
				inline := digestRun(t, s)
				runtime.GOMAXPROCS(procs)
				if judged != inline {
					t.Fatalf("digest %x with background judges, %x judged inline", judged[:8], inline[:8])
				}
			})
		}
	}
}

func digestRun(t *testing.T, s Scenario) [sha256.Size]byte {
	h := sha256.New()
	hashRun(h, mustRun(t, s))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
