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
// verifies it at once, so the handoff to the background judge (a pending
// record, the queue, the sync.Once) is paid on every iteration; on one core
// it is KeyPair.Sign followed by an inline Verify.
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

func BenchmarkHashVoteSizedDocument(b *testing.B) {
	data := make([]byte, 20_000_000) // a 8000-relay vote
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Hash(data)
	}
}
