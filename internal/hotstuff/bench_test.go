package hotstuff

import (
	"fmt"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

func BenchmarkSingleShotDecide(b *testing.B) {
	// Full 9-replica agreement on a healthy network (per-iteration cost of
	// one consensus instance including all signature work).
	for i := 0; i < b.N; i++ {
		cfg := &Config{
			Keys: testkit.Authorities(9, int64(i+1)),
			Propose: func(index, view int) Value {
				return testValue{s: fmt.Sprintf("input-%d", index)}
			},
		}
		reps := make([]*Replica, 9)
		hs := make([]simnet.Handler, 9)
		for j := range reps {
			reps[j] = NewReplica(cfg, j)
			hs[j] = &tnode{r: reps[j]}
		}
		tn := testkit.NewNet(9, 250e6, int64(i))
		tn.Attach(hs)
		tn.Run(time.Minute)
		if !reps[8].decided {
			b.Fatal("undecided")
		}
	}
}

func BenchmarkQCVerify(b *testing.B) {
	keys := testkit.Authorities(9, 1)
	pubs := sig.PublicSet(keys)
	d := sig.Hash([]byte("v"))
	qc := &QC{Phase: 1, View: 2, Digest: d}
	for i := 0; i < 7; i++ {
		qc.Sigs = append(qc.Sigs, keys[i].Sign(domainVote1, qcInput(1, 2, d)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !qc.Verify(pubs, 7) {
			b.Fatal("invalid QC")
		}
	}
}
