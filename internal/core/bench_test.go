package core

import (
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

func BenchmarkICPSFullRun(b *testing.B) {
	// One complete healthy 9-authority ICPS run (dissemination, agreement,
	// aggregation, signature collection) with 200-relay documents.
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 200, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{Keys: keys, Docs: docs, Delta: 5 * time.Second}
		auths := NewAuthorities(cfg)
		tn := testkit.NewNet(9, 250e6, int64(i))
		hs := make([]simnet.Handler, 9)
		for j, a := range auths {
			hs[j] = a
		}
		tn.Attach(hs)
		tn.Run(2 * time.Minute)
		if !auths[0].done {
			b.Fatal("run incomplete")
		}
	}
}

func BenchmarkValueVerify(b *testing.B) {
	keys := testkit.Authorities(9, 1)
	pubs := sig.PublicSet(keys)
	v := buildOKValueForBench(keys, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Verify(pubs, 9, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// buildOKValueForBench mirrors the test helper without a *testing.T.
func buildOKValueForBench(keys []*sig.KeyPair, f int) *AgreementValue {
	n := len(keys)
	v := &AgreementValue{Proposer: 0, Entries: make([]ValueEntry, n)}
	for j := 0; j < n; j++ {
		d := sig.Hash([]byte{byte(j), 0xAA})
		e := ValueEntry{
			Status:   EntryOK,
			Digest:   d,
			OwnerSig: keys[j].Sign(domainDoc, entryInput(nil, j, d)),
		}
		for k := 0; k < f+1; k++ {
			e.Endorsements = append(e.Endorsements, keys[k].Sign(domainEndorse, entryInput(nil, j, d)))
		}
		v.Entries[j] = e
	}
	return v
}
