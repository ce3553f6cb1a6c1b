package sig

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"maps"
	"runtime"
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

// settle waits until every judge of r has drained the queue and exited.
func settle(t *testing.T, r *Registry) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		r.judges.mu.Lock()
		running, queued := r.judges.running, len(r.judges.queue)
		r.judges.mu.Unlock()
		if running == 0 && queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d judges still running, %d records queued", running, queued)
		}
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

// TestRegistrySignAllocatesOneRecord: on a cold key set, where every input
// misses the memo, Registry.Sign allocates the pending record and nothing
// else (the input lives in it); the verdict map's, the memo's and the
// judges' queue's growth amortise to nothing per signature.
func TestRegistrySignAllocatesOneRecord(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // exactly one judge
	keys := Authorities(5, 4)
	pubs := PublicSet(keys)
	msg := []byte("0|" + strings.Repeat("ab", DigestSize)) // an ICPS entry input's size
	i := 0
	got := testing.AllocsPerRun(200, func() {
		i++
		msg[0] = byte(i) // a distinct signature each time: each files a record
		msg[1] = byte(i >> 8)
		pubs.Sign(keys[i%4], "icps/endorse", msg)
	})
	if got != 1 {
		t.Fatalf("Registry.Sign allocated %.2f times, want 1", got)
	}
	settle(t, pubs)
}

// TestRegistrySignJudgesLikeEd25519 is a differential: for signatures made
// through Registry.Sign, Verify's verdict on the signature and on each
// tampered variant equals a fresh ed25519.Verify of the same bytes, whether
// a background judge (one, or three at once) or Verify itself ran Ed25519 on
// the pending record. A pending record is only ever taken under its own key,
// and Memoised counts each distinct signature once either way.
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

	for _, c := range []struct {
		path  string
		procs int
	}{{"judge", 2}, {"judge", 4}, {"event loop", 2}} {
		path := c.path
		t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", path, c.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			// A cold key set (the same keys, fresh memos), so every
			// signature misses the memo and its record is judged here.
			keys := Authorities(11, 4)
			pubs := PublicSet(keys)
			if path == "event loop" {
				// A judge slot taken by no goroutine: records queue and no
				// judge claims them, so Verify judges every one inline.
				pubs.judges.running = pubs.judges.max
			}
			var sigs []signed
			for i, k := range keys {
				for _, domain := range []string{"hotstuff/vote1", "icps/endorse"} {
					msg := []byte(fmt.Sprintf("%d|%d|%x", i, len(sigs), Hash([]byte(domain))))
					sigs = append(sigs, signed{domain, msg, pubs.Sign(k, domain, msg)})
				}
			}
			if path == "judge" {
				settle(t, pubs)
			}
			if pubs.Memoised() != 0 {
				t.Fatalf("Memoised = %d before any Verify, want 0", pubs.Memoised())
			}
			owns := map[verdictKey]*pending{}
			for _, g := range sigs {
				key := verdictKey{Hash(signingInput(nil, g.domain, g.msg)), g.s}
				p := pubs.verdicts[key]
				if p == nil || p == accepted || p == rejected {
					t.Fatalf("%s: no pending record filed", g.msg)
				}
				if p.signer != int32(g.s.Signer) || p.sig != g.s.Bytes || Hash(p.input[:p.n]) != key.input {
					t.Fatalf("%s: record filed under another key", g.msg)
				}
				if path == "judge" && !p.ok {
					t.Fatalf("%s: the judge drained the queue without accepting the record", g.msg)
				}
				owns[key] = p
			}

			// Every tampered variant first: each misses the pending records
			// and leaves them untaken.
			judged := 0
			for _, g := range sigs {
				for _, v := range variants(g)[1:] {
					if got, want := Verify(pubs, v.domain, v.msg, v.s), fresh(v); got != want || got {
						t.Errorf("%s %s: Verify = %v, ed25519.Verify = %v", g.msg, v.name, got, want)
					}
					if v.s.Signer >= 0 && v.s.Signer < len(keys) {
						judged++
					}
				}
			}
			for key, p := range owns {
				if pubs.verdicts[key] != p {
					t.Fatalf("a pending record was taken for a key other than its own")
				}
			}
			if pubs.Memoised() != judged {
				t.Fatalf("Memoised = %d after the variants, want %d", pubs.Memoised(), judged)
			}
			// Then the signatures themselves, twice: the first takes each
			// record, the second reads the settled verdict.
			for pass := 1; pass <= 2; pass++ {
				for _, g := range sigs {
					v := variants(g)[0]
					if got, want := Verify(pubs, v.domain, v.msg, v.s), fresh(v); got != want || !got {
						t.Errorf("pass %d, %s: Verify = %v, ed25519.Verify = %v", pass, g.msg, got, want)
					}
				}
				if want := judged + len(sigs); pubs.Memoised() != want {
					t.Fatalf("pass %d: Memoised = %d, want %d", pass, pubs.Memoised(), want)
				}
			}
			for key := range owns {
				if pubs.verdicts[key] != accepted {
					t.Fatalf("%x: verdict not settled as accepted", key.input[:4])
				}
			}
		})
	}
}

// TestRegistrySignWithoutSpareCore: on one core no judge starts, but the
// memo still applies. A cold key set signs exactly as KeyPair.Sign does and
// files a record that Verify judges inline; a second registry on the warm key
// set files that same record and takes its verdict without Ed25519.
func TestRegistrySignWithoutSpareCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	keys := Authorities(5, 4)
	msg := []byte("digest")
	key := verdictKey{Hash(signingInput(nil, "qc", msg)), keys[1].Sign("qc", msg)}
	var first *pending
	for run := 1; run <= 2; run++ {
		pubs := PublicSet(keys)
		s := pubs.Sign(keys[1], "qc", msg)
		p := pubs.verdicts[key]
		if s != key.sig || len(pubs.verdicts) != 1 || p == nil || p == accepted || p == rejected {
			t.Fatalf("run %d: signature %v, %d verdicts filed; want KeyPair.Sign's and its one pending record", run, s.Signer, len(pubs.verdicts))
		}
		if run == 1 {
			first = p
		} else if p != first {
			t.Fatalf("run 2 filed record %p, want the memo's %p", p, first)
		}
		if pubs.judges.running != 0 || len(pubs.judges.queue) != 0 {
			t.Fatalf("run %d: %d judges, %d records queued on one core; want none", run, pubs.judges.running, len(pubs.judges.queue))
		}
		if !Verify(pubs, "qc", msg, s) || pubs.Memoised() != 1 {
			t.Fatalf("run %d: the signature did not verify once", run)
		}
	}
}

// TestSignMemoSharesRecordsAcrossRegistries: a second registry on a warm key
// set returns the signatures the first returned, byte for byte, files the
// very records the first filed and hands nothing to its judges.
func TestSignMemoSharesRecordsAcrossRegistries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one judge a registry
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
	first := PublicSet(keys)
	var sigs []Signature
	for i, in := range inputs {
		sigs = append(sigs, first.Sign(keys[i%len(keys)], in.domain, in.msg))
	}
	settle(t, first)

	second := PublicSet(keys)
	for i, in := range inputs {
		k := keys[i%len(keys)]
		s := second.Sign(k, in.domain, in.msg)
		if s != sigs[i] || s != k.Sign(in.domain, in.msg) {
			t.Fatalf("%s: the warm key set signed other bytes", in.msg)
		}
		key := verdictKey{Hash(signingInput(nil, in.domain, in.msg)), s}
		if p := second.verdicts[key]; p == nil || p != first.verdicts[key] {
			t.Fatalf("%s: filed record %p, the first registry filed %p", in.msg, p, first.verdicts[key])
		}
	}
	second.judges.mu.Lock()
	running, queued := second.judges.running, len(second.judges.queue)
	second.judges.mu.Unlock()
	if running != 0 || queued != 0 {
		t.Fatalf("%d judges started, %d records queued for memo hits; want none", running, queued)
	}
	for i, in := range inputs {
		if !Verify(second, in.domain, in.msg, sigs[i]) {
			t.Fatalf("%s: a memoised signature was rejected", in.msg)
		}
	}
	if second.Memoised() != len(inputs) {
		t.Fatalf("Memoised = %d, want %d: the count stays per registry", second.Memoised(), len(inputs))
	}
}

// TestSignMemoSignsEachInputOnce: registries on one cold key set that sign
// the same inputs at once, as the sweep workers on one inputs entry do, run
// Ed25519 on each input once between them: one registry makes the record and
// hands it to its judge, the others file that record and hand nothing. Each
// registry's judge counts as running, so the records handed stay queued.
func TestSignMemoSignsEachInputOnce(t *testing.T) {
	const workers, inputs = 8, 64
	keys := Authorities(23, 4)
	regs := make([]*Registry, workers)
	for w := range regs {
		regs[w] = PublicSet(keys)
		regs[w].judges.max, regs[w].judges.running = 1, 1
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
	handed := map[*pending]int{}
	for _, r := range regs {
		for _, p := range r.judges.queue {
			handed[p]++
		}
	}
	for i := range inputs {
		k := keys[i%len(keys)]
		key := verdictKey{Hash(signingInput(nil, "cons", []byte{byte(i)})), k.Sign("cons", []byte{byte(i)})}
		p := regs[0].verdicts[key]
		for w, r := range regs {
			if r.verdicts[key] != p {
				t.Fatalf("input %d: registry %d filed record %p, registry 0 %p", i, w, r.verdicts[key], p)
			}
		}
		if handed[p] != 1 {
			t.Fatalf("input %d: record handed to %d judges; want 1, from the one registry that signed", i, handed[p])
		}
	}
	if len(handed) != inputs {
		t.Fatalf("%d records handed to judges for %d inputs", len(handed), inputs)
	}
}

// TestSignMemoNeverVouchesForAForgery: a forged or relabelled signature over
// an input the key set has memoised is rejected by a fresh registry, and
// judging it leaves every key pair's memo as it was.
func TestSignMemoNeverVouchesForAForgery(t *testing.T) {
	keys := Authorities(17, 4)
	msg := []byte("digest")
	warm := PublicSet(keys)
	genuine := warm.Sign(keys[1], "qc", msg)
	if !Verify(warm, "qc", msg, genuine) {
		t.Fatal("genuine signature rejected")
	}
	snapshot := func() map[int]map[Digest]*pending {
		out := map[int]map[Digest]*pending{}
		for _, k := range keys {
			k.memo.mu.Lock()
			out[k.Index] = maps.Clone(k.memo.m)
			k.memo.mu.Unlock()
		}
		return out
	}
	before := snapshot()
	record := before[1][Hash(signingInput(nil, "qc", msg))]
	recSig, recInput := record.sig, record.input

	forged := genuine
	forged.Bytes[7] ^= 1
	relabelled := genuine
	relabelled.Signer = 2
	fresh := PublicSet(keys)
	for _, c := range []struct {
		name string
		s    Signature
	}{{"forged", forged}, {"relabelled", relabelled}} {
		for try := 1; try <= 2; try++ {
			if Verify(fresh, "qc", msg, c.s) {
				t.Fatalf("%s, try %d: accepted over a memoised input", c.name, try)
			}
		}
	}
	if !Verify(fresh, "qc", msg, genuine) || fresh.Memoised() != 3 {
		t.Fatalf("genuine after the forgeries: Memoised = %d, want 3", fresh.Memoised())
	}
	after := snapshot()
	for i, m := range before {
		if !maps.Equal(m, after[i]) {
			t.Fatalf("key %d's memo changed: %d records before, %d after", i, len(m), len(after[i]))
		}
	}
	if record.sig != recSig || record.input != recInput || !record.ok {
		t.Fatal("the memoised record was rewritten")
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
