package sig

import (
	"encoding/binary"
	"testing"
)

func BenchmarkSign(b *testing.B) {
	k := NewKeyPair(1, 0)
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Sign("bench", msg)
	}
}

// BenchmarkVerifyMemoHit is a verification the registry has already judged:
// one SHA-256 of a stack-built input and a map lookup, no allocation.
func BenchmarkVerifyMemoHit(b *testing.B) {
	keys := Authorities(1, 9)
	pubs := PublicSet(keys)
	msg := make([]byte, 2*DigestSize+2) // an ICPS entry input's size
	s := keys[3].Sign("bench", msg)
	Verify(pubs, "bench", msg, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(pubs, "bench", msg, s) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkSignThenVerify signs a fresh message through a registry and
// verifies it at once, so every iteration pays Ed25519 signing, one insert
// in the key pair's memo and one lookup of the verdict Sign filed.
func BenchmarkSignThenVerify(b *testing.B) {
	keys := Authorities(1, 9)
	pubs := PublicSet(keys)
	msg := make([]byte, 2*DigestSize+2) // an ICPS entry input's size
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		binary.BigEndian.PutUint64(msg, uint64(i))
		s := pubs.Sign(keys[i%len(keys)], "bench", msg)
		if !Verify(pubs, "bench", msg, s) {
			b.Fatal("verification failed")
		}
	}
}

// warmInputs signs n distinct ICPS-entry-sized inputs through a registry on
// keys, so that each is in its key pair's memo, and returns them.
func warmInputs(keys []*KeyPair, n int) [][]byte {
	pubs := PublicSet(keys)
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, 2*DigestSize+2) // an ICPS entry input's size
		binary.BigEndian.PutUint64(msgs[i], uint64(i))
		pubs.Sign(keys[i%len(keys)], "bench", msgs[i])
	}
	return msgs
}

// BenchmarkSignMemoHit signs inputs the key set has already signed, each
// through a registry that has not: one SHA-256 of a stack-built input, a
// lookup in the key pair's memo and the accept verdict filed in the run's
// verdict map; no Ed25519. A fresh registry every
// len(msgs) signatures keeps every one a first sight for its registry.
func BenchmarkSignMemoHit(b *testing.B) {
	keys := Authorities(1, 9)
	msgs := warmInputs(keys, 4096)
	var pubs *Registry
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		j := i % len(msgs)
		if j == 0 {
			pubs = PublicSet(keys)
		}
		pubs.Sign(keys[j%len(keys)], "bench", msgs[j])
	}
}

// TestSignMemoHitAllocatesNothing pins BenchmarkSignMemoHit: a memo hit
// through a fresh registry allocates nothing but its verdict map's growth,
// which amortises to nothing per signature.
func TestSignMemoHitAllocatesNothing(t *testing.T) {
	keys := Authorities(1, 9)
	const runs = 200
	msgs := warmInputs(keys, runs+1) // AllocsPerRun calls once more to warm up
	pubs := PublicSet(keys)
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		pubs.Sign(keys[i%len(keys)], "bench", msgs[i])
		i++
	})
	if got != 0 {
		t.Fatalf("a memo hit allocated %.2f times, want 0", got)
	}
	if len(pubs.verdicts) != runs+1 {
		t.Fatalf("%d verdicts filed, want %d", len(pubs.verdicts), runs+1)
	}
}

func BenchmarkHashVoteSizedDocument(b *testing.B) {
	data := make([]byte, 20_000_000) // a 8000-relay vote
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Hash(data)
	}
}
