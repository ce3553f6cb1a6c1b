package harness

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/sig"
)

// TestBackgroundJudgesMatchInlineRuns: the three protocols, healthy and under
// the five-minute outage, at the consensus workloads' 300 relays. Each of the
// first two runs starts on a freshly built key set, so every signature is
// signed cold. With a spare core the run's registry judges them on
// background goroutines; every one of them is gone shortly after RunE
// returns, and the run's digest equals that of the same run on one core,
// where no judge starts and every signature is judged inline. A third run on
// the key set the one-core run warmed takes every signature from the key
// memo and gives the same digest. CI's race job runs it.
func TestBackgroundJudgesMatchInlineRuns(t *testing.T) {
	procs := max(runtime.GOMAXPROCS(0), 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	outage := attack.FiveMinuteOutage(attack.MajorityTargets(9))
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		for _, plan := range []*attack.Plan{nil, &outage} {
			s := Scenario{Protocol: p, N: 9, Relays: 300, EntryPadding: -1, Seed: 1, Attack: plan}
			t.Run(fmt.Sprintf("%v/attacked=%v", p, plan != nil), func(t *testing.T) {
				evictInputs(t, s) // built on every core before the baseline is read
				baseline := runtime.NumGoroutine()
				judged := protocolDigest(mustRun(t, s))
				for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines 10 s after the run, %d before it: a judge outlived its run", runtime.NumGoroutine(), baseline)
					}
				}

				evictInputs(t, s)
				runtime.GOMAXPROCS(1)
				inline := protocolDigest(mustRun(t, s))
				runtime.GOMAXPROCS(procs)
				if judged != inline {
					t.Fatalf("digest %x with background judges, %x judged inline", judged[:8], inline[:8])
				}
				if warm := protocolDigest(mustRun(t, s)); warm != inline {
					t.Fatalf("digest %x from the key memo, %x signed cold", warm[:8], inline[:8])
				}
			})
		}
	}
}

// evictInputs drops every inputs entry of s's (N, seed), any of which would
// lend a new entry its warm keys, and builds s's entry afresh on every core:
// the next run on s signs with a fresh key set whose memos are empty. Key
// derivation is deterministic, so the fresh keys sign exactly as the evicted
// ones did.
func evictInputs(t *testing.T, s Scenario) {
	t.Helper()
	s = s.withDefaults()
	warm, _ := Inputs(s)
	inputsCache.mu.Lock()
	inputsCache.entries = slices.DeleteFunc(inputsCache.entries, func(e *inputsEntry) bool { return e.n == s.N && e.seed == s.Seed })
	inputsCache.mu.Unlock()
	if fresh, _ := Inputs(s); slices.ContainsFunc(fresh, func(k *sig.KeyPair) bool { return slices.Contains(warm, k) }) {
		t.Fatal("an evicted entry's key pair is handed out again")
	}
}

// protocolDigest is runDigest for a run with no distribution phase.
func protocolDigest(res *RunResult) [sha256.Size]byte {
	h := sha256.New()
	hashRun(h, res)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
