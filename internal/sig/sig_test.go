package sig

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterministicKeys(t *testing.T) {
	a := NewKeyPair(7, 3)
	b := NewKeyPair(7, 3)
	if !bytes.Equal(a.Public, b.Public) {
		t.Fatal("same (seed,index) produced different keys")
	}
	c := NewKeyPair(7, 4)
	if bytes.Equal(a.Public, c.Public) {
		t.Fatal("different indices produced identical keys")
	}
	d := NewKeyPair(8, 3)
	if bytes.Equal(a.Public, d.Public) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestSignVerify(t *testing.T) {
	keys := Authorities(1, 9)
	pubs := PublicSet(keys)
	msg := []byte("consensus digest")
	s := keys[2].Sign("vote", msg)
	if s.Signer != 2 {
		t.Fatalf("signer=%d, want 2", s.Signer)
	}
	if !Verify(pubs, "vote", msg, s) {
		t.Fatal("valid signature rejected")
	}
	if Verify(pubs, "vote", []byte("other"), s) {
		t.Fatal("signature verified against wrong message")
	}
	if Verify(pubs, "proposal", msg, s) {
		t.Fatal("signature verified under wrong domain")
	}
	bad := s
	bad.Signer = 3
	if Verify(pubs, "vote", msg, bad) {
		t.Fatal("signature verified for wrong signer")
	}
	out := s
	out.Signer = 99
	if Verify(pubs, "vote", msg, out) {
		t.Fatal("out-of-range signer accepted")
	}
	neg := s
	neg.Signer = -1
	if Verify(pubs, "vote", msg, neg) {
		t.Fatal("negative signer accepted")
	}
}

func TestFingerprintFormat(t *testing.T) {
	k := NewKeyPair(1, 0)
	s := k.Fingerprint.String()
	if len(s) != 40 {
		t.Fatalf("fingerprint length %d, want 40", len(s))
	}
	for _, c := range s {
		if !(c >= '0' && c <= '9' || c >= 'A' && c <= 'F') {
			t.Fatalf("fingerprint contains %q; want upper hex", c)
		}
	}
	if want := strings.ToUpper(hex.EncodeToString(k.Fingerprint[:])); s != want {
		t.Fatalf("fingerprint %q, want %q", s, want)
	}
	if got := string(k.Fingerprint.AppendTo([]byte("dir-source "))); got != "dir-source "+s {
		t.Fatalf("AppendTo wrote %q after its prefix, String says %q", got, s)
	}
}

func TestHashParts(t *testing.T) {
	// Length prefixes must prevent concatenation ambiguity.
	a := HashParts([]byte("ab"), []byte("c"))
	b := HashParts([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("HashParts is ambiguous under boundary shifts")
	}
	if HashParts([]byte("x")) != HashParts([]byte("x")) {
		t.Fatal("HashParts not deterministic")
	}
}

func TestDigestHelpers(t *testing.T) {
	d := Hash([]byte("hello"))
	if d.IsZero() {
		t.Fatal("digest of data is zero")
	}
	var z Digest
	if !z.IsZero() {
		t.Fatal("zero digest not reported as zero")
	}
	if len(d.Hex()) != 64 || len(d.Short()) != 8 {
		t.Fatalf("hex lengths: %d/%d", len(d.Hex()), len(d.Short()))
	}
}

func TestQuickSignVerifyRoundTrip(t *testing.T) {
	keys := Authorities(42, 4)
	pubs := PublicSet(keys)
	f := func(msg []byte, who uint8) bool {
		k := keys[int(who)%len(keys)]
		s := k.Sign("q", msg)
		return Verify(pubs, "q", msg, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTamperedMessageRejected(t *testing.T) {
	keys := Authorities(42, 2)
	pubs := PublicSet(keys)
	f := func(msg []byte, flip uint8) bool {
		s := keys[0].Sign("q", msg)
		tampered := append(append([]byte{}, msg...), flip)
		return !Verify(pubs, "q", tampered, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMajority(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {2, 2}, {4, 3}, {8, 5}, {9, 5}} {
		if got := Majority(c[0]); got != c[1] {
			t.Errorf("Majority(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestVerifyQuorum covers, in one place, the rejections the QC, TC,
// endorsement, Dolev–Strong and chain-link checks used to test separately.
func TestVerifyQuorum(t *testing.T) {
	keys := Authorities(3, 9)
	pubs := PublicSet(keys)
	msg := []byte("digest")
	sign := func(signers ...int) []Signature {
		var out []Signature
		for _, i := range signers {
			out = append(out, keys[i].Sign("qc", msg))
		}
		return out
	}
	corrupt := sign(0, 1, 2)
	corrupt[1].Bytes[0] ^= 1
	outOfRange := sign(0, 1, 2)
	outOfRange[2].Signer = 9
	relabelled := sign(0, 1, 2)
	relabelled[2].Signer = 3 // a valid signature, claimed for another key

	cases := []struct {
		name   string
		domain string
		msg    []byte
		sigs   []Signature
		k      int
		ok     bool
	}{
		{"exactly k", "qc", msg, sign(0, 1, 2), 3, true},
		{"more than k", "qc", msg, sign(4, 0, 8, 2), 3, true},
		{"k of zero, no signatures", "qc", msg, nil, 0, true},
		{"fewer than k", "qc", msg, sign(0, 1), 3, false},
		{"duplicate signer", "qc", msg, sign(0, 1, 1), 3, false},
		{"duplicate beyond k", "qc", msg, sign(0, 1, 2, 0), 3, false},
		{"bad signature", "qc", msg, corrupt, 3, false},
		{"out-of-range signer", "qc", msg, outOfRange, 3, false},
		{"signature under another signer's index", "qc", msg, relabelled, 3, false},
		{"wrong domain", "tc", msg, sign(0, 1, 2), 3, false},
		{"wrong message", "qc", []byte("other"), sign(0, 1, 2), 3, false},
	}
	// Twice over one registry: the second pass meets a memo that has already
	// judged every signature of every row, and must reach the same verdicts.
	for pass := 1; pass <= 2; pass++ {
		for _, c := range cases {
			err := VerifyQuorum(pubs, c.domain, c.msg, c.sigs, c.k)
			if (err == nil) != c.ok {
				t.Errorf("pass %d, %s: err = %v, want ok=%v", pass, c.name, err, c.ok)
			}
		}
	}
}

// TestRegistryNeverLaundersAVerdict: a verdict is remembered for exactly the
// (signer, domain, message, signature bytes) it was reached on, so nothing
// accepted can vouch for anything else and nothing rejected can taint it.
func TestRegistryNeverLaundersAVerdict(t *testing.T) {
	keys := Authorities(3, 4)
	msg := []byte("digest")
	genuine := keys[1].Sign("qc", msg)
	forged := genuine
	forged.Bytes[5] ^= 1
	relabelled := genuine
	relabelled.Signer = 2
	outOfRange := genuine
	outOfRange.Signer = 4
	negative := genuine
	negative.Signer = -1

	steps := []struct {
		name    string
		domain  string
		msg     []byte
		s       Signature
		ok      bool
		entries int // Memoised() after the step
	}{
		{"genuine", "qc", msg, genuine, true, 1},
		{"forged after genuine", "qc", msg, forged, false, 2},
		{"genuine again", "qc", msg, genuine, true, 2},
		{"forged again", "qc", msg, forged, false, 2},
		{"same bytes, another domain", "tc", msg, genuine, false, 3},
		{"same bytes, another message", "qc", []byte("other"), genuine, false, 4},
		{"same bytes, another signer", "qc", msg, relabelled, false, 5},
		{"signer past the key set", "qc", msg, outOfRange, false, 5},
		{"negative signer", "qc", msg, negative, false, 5},
		{"genuine after all of them", "qc", msg, genuine, true, 5},
	}
	pubs := PublicSet(keys)
	for _, c := range steps {
		if got := Verify(pubs, c.domain, c.msg, c.s); got != c.ok {
			t.Errorf("%s: Verify = %v, want %v", c.name, got, c.ok)
		}
		if got := pubs.Memoised(); got != c.entries {
			t.Errorf("%s: registry holds %d verdicts, want %d", c.name, got, c.entries)
		}
	}

	// The reverse order on a fresh registry: a rejection first must not taint
	// the genuine signature over the same message.
	pubs = PublicSet(keys)
	if Verify(pubs, "qc", msg, forged) || !Verify(pubs, "qc", msg, genuine) || Verify(pubs, "qc", msg, forged) {
		t.Error("forged-then-genuine: verdicts crossed")
	}
	if pubs.Len() != 4 || pubs.Memoised() != 2 {
		t.Errorf("Len=%d Memoised=%d, want 4 and 2", pubs.Len(), pubs.Memoised())
	}
}

// TestVerifyMemoHitAllocatesNothing: a verdict already judged is looked up
// from a stack-hashed input, so it allocates nothing; an input past the stack
// buffer still gets the verdict it earned.
func TestVerifyMemoHitAllocatesNothing(t *testing.T) {
	keys := Authorities(5, 4)
	pubs := PublicSet(keys)
	msg := []byte("0|" + strings.Repeat("ab", DigestSize)) // an ICPS entry input's size
	s := keys[2].Sign("icps/endorse", msg)
	if !Verify(pubs, "icps/endorse", msg, s) {
		t.Fatal("genuine signature rejected")
	}
	if got := testing.AllocsPerRun(100, func() { Verify(pubs, "icps/endorse", msg, s) }); got != 0 {
		t.Fatalf("a memo hit allocated %.0f times, want 0", got)
	}

	long := bytes.Repeat([]byte{7}, 1000)
	ls := keys[1].Sign("long", long)
	tampered := bytes.Clone(long)
	tampered[999] ^= 1
	for try := 1; try <= 2; try++ {
		if !Verify(pubs, "long", long, ls) || Verify(pubs, "long", tampered, ls) {
			t.Fatalf("try %d: a %d-byte input got the wrong verdict", try, len(long))
		}
	}
	if got := pubs.Memoised(); got != 3 {
		t.Fatalf("registry holds %d verdicts, want 3", got)
	}
}

// TestKeyPairSignAllocatesNothing: KeyPair.Sign builds domain‖0‖msg in a
// stack buffer, as Verify does.
func TestKeyPairSignAllocatesNothing(t *testing.T) {
	k := NewKeyPair(5, 2)
	msg := []byte("0|" + strings.Repeat("ab", DigestSize))
	if got := testing.AllocsPerRun(100, func() { k.Sign("icps/endorse", msg) }); got != 0 {
		t.Fatalf("KeyPair.Sign allocated %.0f times, want 0", got)
	}
}

// TestRegistrySignAllocatesNothingAmortised: on a cold key set, where every
// input misses the memo, Registry.Sign allocates nothing but the growth of
// the key pairs' memos and the verdict map, which amortises to nothing per
// signature.
func TestRegistrySignAllocatesNothingAmortised(t *testing.T) {
	keys := Authorities(5, 4)
	pubs := PublicSet(keys)
	msg := []byte("0|" + strings.Repeat("ab", DigestSize)) // an ICPS entry input's size
	i := 0
	got := testing.AllocsPerRun(200, func() {
		i++
		msg[0] = byte(i) // a distinct signature each time: each is signed and filed
		msg[1] = byte(i >> 8)
		pubs.Sign(keys[i%4], "icps/endorse", msg)
	})
	if got != 0 {
		t.Fatalf("Registry.Sign allocated %.2f times, want 0", got)
	}
}

// TestRegistrySignJudgesLikeEd25519 is a differential: for signatures made
// through Registry.Sign, Verify's verdict on the signature and on each
// tampered variant equals a fresh ed25519.Verify of the same bytes. It runs
// on a cold key set, which signs every input, and then on a second registry
// over the warm set, which takes every signature from the memo. Each
// registry files accept for its own signatures as it signs them and runs
// Ed25519 on none of them; it runs Ed25519 once on each tampered variant.
func TestRegistrySignJudgesLikeEd25519(t *testing.T) {
	keys := Authorities(11, 4)
	type signed struct {
		domain string
		msg    []byte
		s      Signature
	}
	type variant struct {
		name   string
		domain string
		msg    []byte
		s      Signature
	}
	variants := func(g signed) []variant {
		flip := func(i int) Signature { s := g.s; s.Bytes[i] ^= 0x40; return s }
		relabel := func(signer int) Signature { s := g.s; s.Signer = signer; return s }
		return []variant{
			{"untouched", g.domain, g.msg, g.s},
			{"first byte flipped", g.domain, g.msg, flip(0)},
			{"last byte flipped", g.domain, g.msg, flip(SignatureSize - 1)},
			{"another message", g.domain, append(bytes.Clone(g.msg), '!'), g.s},
			{"another domain", g.domain + "2", g.msg, g.s},
			{"another signer", g.domain, g.msg, relabel((g.s.Signer + 1) % len(keys))},
			{"signer past the key set", g.domain, g.msg, relabel(len(keys))},
			{"negative signer", g.domain, g.msg, relabel(-1)},
		}
	}
	fresh := func(v variant) bool {
		if v.s.Signer < 0 || v.s.Signer >= len(keys) {
			return false
		}
		return ed25519.Verify(keys[v.s.Signer].Public, signingInput(nil, v.domain, v.msg), v.s.Bytes[:])
	}

	for _, run := range []string{"cold keys", "warm keys"} {
		pubs := PublicSet(keys)
		var sigs []signed
		for i, k := range keys {
			for _, domain := range []string{"hotstuff/vote1", "icps/endorse"} {
				msg := []byte(fmt.Sprintf("%d|%d|%x", i, len(sigs), Hash([]byte(domain))))
				sigs = append(sigs, signed{domain, msg, pubs.Sign(k, domain, msg)})
			}
		}
		for _, g := range sigs {
			if ok, filed := pubs.verdicts[verdictKey{Hash(signingInput(nil, g.domain, g.msg)), g.s}]; !ok || !filed {
				t.Fatalf("%s, %s: accept not filed as it was signed", run, g.msg)
			}
		}

		// Every tampered variant first: each is judged by Ed25519, once.
		judged := 0
		for _, g := range sigs {
			for _, v := range variants(g)[1:] {
				if got, want := Verify(pubs, v.domain, v.msg, v.s), fresh(v); got != want || got {
					t.Errorf("%s, %s %s: Verify = %v, ed25519.Verify = %v", run, g.msg, v.name, got, want)
				}
				if v.s.Signer >= 0 && v.s.Signer < len(keys) {
					judged++
				}
			}
		}
		// Then the signatures themselves, twice: accepted with no Ed25519.
		for pass := 1; pass <= 2; pass++ {
			for _, g := range sigs {
				v := variants(g)[0]
				if got, want := Verify(pubs, v.domain, v.msg, v.s), fresh(v); got != want || !got {
					t.Errorf("%s, pass %d, %s: Verify = %v, ed25519.Verify = %v", run, pass, g.msg, got, want)
				}
			}
			if pubs.Memoised() != judged {
				t.Fatalf("%s, pass %d: Memoised = %d, want %d, the tampered variants alone", run, pass, pubs.Memoised(), judged)
			}
		}
	}
}

// TestRegistrySignTrustsThePrivateKey: KeyPair.Public is an exported field,
// so a key pair whose Public was swapped for another authority's key, and a
// registry built from it, must not make its signatures vouch for themselves.
// Registry.Sign files nothing and leaves the memo empty, and Verify judges the
// signature by Ed25519 under the swapped key and rejects it.
func TestRegistrySignTrustsThePrivateKey(t *testing.T) {
	keys := Authorities(29, 4)
	keys[1].Public = keys[2].Public
	pubs := PublicSet(keys)
	msg := []byte("digest")
	s := pubs.Sign(keys[1], "qc", msg)
	if s != keys[1].Sign("qc", msg) || len(pubs.verdicts) != 0 || keys[1].memo.m != nil {
		t.Fatalf("%d verdicts filed, memo %v; want KeyPair.Sign's signature and nothing filed", len(pubs.verdicts), keys[1].memo.m)
	}
	for try := 1; try <= 2; try++ {
		if Verify(pubs, "qc", msg, s) || pubs.Memoised() != 1 {
			t.Fatalf("try %d: Memoised = %d; want the signature judged by Ed25519 once and rejected", try, pubs.Memoised())
		}
	}
}

// TestSignMemoSharesRecordsAcrossRegistries: a second registry on a warm key
// set returns the signatures the first returned, byte for byte, which are
// KeyPair.Sign's, and adds nothing to the key pairs' memos; both registries
// accept every one of them with no Ed25519.
func TestSignMemoSharesRecordsAcrossRegistries(t *testing.T) {
	keys := Authorities(13, 4)
	type signed struct {
		domain string
		msg    []byte
	}
	var inputs []signed
	for i := range keys {
		for _, domain := range []string{"hotstuff/vote1", "icps/endorse", "cons"} {
			inputs = append(inputs, signed{domain, []byte(fmt.Sprintf("%d|%s", i, domain))})
		}
	}
	memoised := func() (n int) {
		for _, k := range keys {
			n += len(k.memo.m)
		}
		return n
	}
	var sigs []Signature
	for run := 1; run <= 2; run++ {
		pubs := PublicSet(keys)
		for i, in := range inputs {
			k := keys[i%len(keys)]
			s := pubs.Sign(k, in.domain, in.msg)
			if run == 1 {
				sigs = append(sigs, s)
			}
			if s != sigs[i] || s != k.Sign(in.domain, in.msg) {
				t.Fatalf("run %d, %s: the key set signed other bytes", run, in.msg)
			}
		}
		if memoised() != len(inputs) || len(pubs.verdicts) != len(inputs) {
			t.Fatalf("run %d: %d signatures in the memos, %d verdicts filed; want %d of each", run, memoised(), len(pubs.verdicts), len(inputs))
		}
		for i, in := range inputs {
			if !Verify(pubs, in.domain, in.msg, sigs[i]) {
				t.Fatalf("run %d, %s: a memoised signature was rejected", run, in.msg)
			}
		}
		if pubs.Memoised() != 0 {
			t.Fatalf("run %d: Memoised = %d, want 0: the run made every signature", run, pubs.Memoised())
		}
	}
}

// TestSignMemoSignsEachInputOnce: registries on one cold key set that sign
// the same inputs at once, as the sweep workers on one inputs entry do, get
// the same signatures, and each key pair's memo ends holding one per input
// it was asked to sign. A registry that misses an input waits on the memo's
// mutex for the one signing it: while the mutex is held, no registry returns
// a signature under that key.
func TestSignMemoSignsEachInputOnce(t *testing.T) {
	const workers, inputs = 8, 64
	keys := Authorities(23, 4)
	regs := make([]*Registry, workers)
	for w := range regs {
		regs[w] = PublicSet(keys)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	for _, r := range regs {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			for i := range inputs {
				r.Sign(keys[i%len(keys)], "cons", []byte{byte(i)})
			}
		}()
	}
	start.Done()
	done.Wait()
	for i := range inputs {
		k := keys[i%len(keys)]
		key := verdictKey{Hash(signingInput(nil, "cons", []byte{byte(i)})), k.Sign("cons", []byte{byte(i)})}
		for w, r := range regs {
			if !r.verdicts[key] {
				t.Fatalf("input %d: registry %d filed no accept for KeyPair.Sign's signature", i, w)
			}
		}
	}
	for _, k := range keys {
		if len(k.memo.m) != inputs/len(keys) {
			t.Fatalf("key %d's memo holds %d signatures, want %d", k.Index, len(k.memo.m), inputs/len(keys))
		}
	}

	k := keys[0]
	k.memo.mu.Lock()
	returned := make(chan Signature, workers)
	for _, r := range regs {
		go func() { returned <- r.Sign(k, "cons", []byte("held")) }()
	}
	time.Sleep(50 * time.Millisecond)
	if n := len(returned); n != 0 {
		k.memo.mu.Unlock()
		t.Fatalf("%d registries signed while the memo's mutex was held", n)
	}
	k.memo.mu.Unlock()
	for range regs {
		if s := <-returned; s != k.Sign("cons", []byte("held")) {
			t.Fatal("a registry returned another signature")
		}
	}
}

// TestSignMemoNeverVouchesForAForgery: a forged or relabelled signature over
// an input the key set has memoised is rejected, both by the registry that
// signed it and by a fresh one; each registry runs Ed25519 once on each
// distinct forgery, and judging them leaves every key pair's memo as it was.
func TestSignMemoNeverVouchesForAForgery(t *testing.T) {
	keys := Authorities(17, 4)
	msg := []byte("digest")
	warm := PublicSet(keys)
	genuine := warm.Sign(keys[1], "qc", msg)
	if !Verify(warm, "qc", msg, genuine) || warm.Memoised() != 0 {
		t.Fatal("genuine signature not accepted as the run's own")
	}
	snapshot := func() map[int]map[Digest][SignatureSize]byte {
		out := map[int]map[Digest][SignatureSize]byte{}
		for _, k := range keys {
			k.memo.mu.Lock()
			out[k.Index] = maps.Clone(k.memo.m)
			k.memo.mu.Unlock()
		}
		return out
	}
	before := snapshot()
	if before[1][Hash(signingInput(nil, "qc", msg))] != genuine.Bytes {
		t.Fatal("the memo does not hold the genuine signature")
	}

	forged := genuine
	forged.Bytes[7] ^= 1
	relabelled := genuine
	relabelled.Signer = 2
	fresh := PublicSet(keys)
	for _, r := range []*Registry{warm, fresh} {
		base := r.Memoised()
		for i, s := range []Signature{forged, relabelled} {
			for try := 1; try <= 2; try++ {
				if Verify(r, "qc", msg, s) {
					t.Fatalf("forgery %d, try %d: accepted over a memoised input", i, try)
				}
				if got := r.Memoised() - base; got != i+1 {
					t.Fatalf("forgery %d, try %d: %d Ed25519 judgements, want %d", i, try, got, i+1)
				}
			}
		}
	}
	if !Verify(fresh, "qc", msg, genuine) || fresh.Memoised() != 3 {
		t.Fatalf("genuine after the forgeries: Memoised = %d, want 3", fresh.Memoised())
	}
	after := snapshot()
	for i, m := range before {
		if !maps.Equal(m, after[i]) {
			t.Fatalf("key %d's memo changed: %d signatures before, %d after", i, len(m), len(after[i]))
		}
	}
}

// TestSignMemoSkipsAForeignRegistry: a registry holding another key at the
// signer's index files nothing and leaves the signer's memo empty, so its
// rejection can never become the verdict a later registry on the signer's
// own key set takes.
func TestSignMemoSkipsAForeignRegistry(t *testing.T) {
	keys, foreign := Authorities(19, 4), Authorities(20, 4)
	msg := []byte("digest")
	other := PublicSet(foreign)
	s := other.Sign(keys[2], "qc", msg)
	if len(other.verdicts) != 0 || keys[2].memo.m != nil {
		t.Fatalf("%d verdicts filed, memo %v; want none", len(other.verdicts), keys[2].memo.m)
	}
	if Verify(other, "qc", msg, s) {
		t.Fatal("a signature under another key at its index was accepted")
	}
	own := PublicSet(keys)
	if own.Sign(keys[2], "qc", msg) != s || !Verify(own, "qc", msg, s) {
		t.Fatal("the signer's own registry did not accept its signature")
	}
}

// TestTally runs twice over one registry: the second tally meets a memo that
// has already judged every signature, and must keep every rule.
func TestTally(t *testing.T) {
	keys := Authorities(5, 4)
	pubs := PublicSet(keys)
	for _, name := range []string{"cold registry", "warm registry"} {
		t.Run(name, func(t *testing.T) { testTally(t, keys, pubs) })
	}
}

func testTally(t *testing.T, keys []*KeyPair, pubs *Registry) {
	ours, theirs := Hash([]byte("ours")), Hash([]byte("theirs"))
	tally := NewTally(pubs, "cons")
	sign := func(i int, d Digest) Signature { return keys[i].Sign("cons", d[:]) }

	own := tally.Sign(keys[0], ours)
	if d, s, ok := tally.Lookup(0); !ok || d != ours || s != own {
		t.Fatal("own signature not on record")
	}
	if valid, added := tally.Add(1, ours, sign(1, ours)); !valid || !added {
		t.Fatalf("valid signature: valid=%v added=%v", valid, added)
	}
	// First signature per signer wins: a second valid one, over any digest,
	// is ignored.
	if valid, added := tally.Add(1, theirs, sign(1, theirs)); !valid || added {
		t.Fatalf("second signature from one signer: valid=%v added=%v", valid, added)
	}
	if valid, added := tally.Add(2, theirs, sign(2, theirs)); !valid || !added {
		t.Fatalf("signature over another digest: valid=%v added=%v", valid, added)
	}
	rejected := []struct {
		name   string
		from   int
		digest Digest
		s      Signature
	}{
		{"wrong digest", 3, theirs, sign(3, ours)},
		{"wrong domain", 3, ours, keys[3].Sign("vote", ours[:])},
		{"attributed to another authority", 2, ours, sign(3, ours)},
		{"out-of-range signer", 7, ours, Signature{Signer: 7}},
		{"negative signer", -1, ours, Signature{Signer: -1}},
	}
	for _, c := range rejected {
		if valid, added := tally.Add(c.from, c.digest, c.s); valid || added {
			t.Errorf("%s: valid=%v added=%v, want rejected", c.name, valid, added)
		}
	}
	if _, _, ok := tally.Lookup(3); ok {
		t.Error("a rejected signature was stored")
	}
	if _, _, ok := tally.Lookup(7); ok {
		t.Error("Lookup out of range reported a record")
	}
	if tally.Len() != 3 || tally.Matching(ours) != 2 || tally.Matching(theirs) != 1 {
		t.Errorf("Len=%d Matching(ours)=%d Matching(theirs)=%d, want 3/2/1",
			tally.Len(), tally.Matching(ours), tally.Matching(theirs))
	}
}
