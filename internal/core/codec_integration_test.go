package core

import (
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// codecBouncer wraps an authority and round-trips every delivered message
// through the wire codec, proving the codecs cover everything the protocol
// actually sends and that decoded messages drive the protocol identically.
type codecBouncer struct {
	inner *Authority
	t     *testing.T
}

func (b *codecBouncer) Start(ctx *simnet.Context) { b.inner.Start(ctx) }

func (b *codecBouncer) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	enc, err := EncodeMessage(msg)
	if err != nil {
		b.t.Fatalf("EncodeMessage(%T): %v", msg, err)
	}
	dec, err := DecodeAny(enc)
	if err != nil {
		b.t.Fatalf("DecodeAny(%T): %v", msg, err)
	}
	if dec.Kind() != msg.Kind() {
		b.t.Fatalf("kind changed: %q -> %q", msg.Kind(), dec.Kind())
	}
	b.inner.Deliver(ctx, from, dec)
}

func TestFullRunThroughWireCodec(t *testing.T) {
	// A complete ICPS run in which every single message crosses the binary
	// codec. An equivocator is included so proof-bearing entries (the most
	// complex wire structures) are exercised, and one silent authority
	// forces ⊥(timeout) proofs as well.
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 60, 1, 0)
	altDocs := testkit.Docs(keys, 30, 13, 0)
	cfg := Config{
		Keys:         keys,
		Docs:         docs,
		Delta:        5 * time.Second,
		BaseTimeout:  10 * time.Second,
		Equivocators: map[int]*vote.Document{3: altDocs[3]},
		Silent:       map[int]bool{7: true},
	}
	auths := NewAuthorities(cfg)
	tn := testkit.NewNet(9, 250e6, 1)
	hs := make([]simnet.Handler, 9)
	for i, a := range auths {
		hs[i] = &codecBouncer{inner: a, t: t}
	}
	tn.Attach(hs)
	tn.Run(10 * time.Minute)

	correct := func(i int) bool { return i != 3 && i != 7 }
	res := Collect(auths, cfg, correct)
	if !res.Success {
		t.Fatalf("codec-bounced run failed: %v", res.DoneAt)
	}
	assertDefinition51(t, auths, cfg, correct)
	v := auths[0].Decided()
	if v.Entries[3].Status != EntryBotEquivocation {
		t.Fatalf("entry 3 status %v after codec bounce", v.Entries[3].Status)
	}
	if v.Entries[7].Status != EntryBotTimeout {
		t.Fatalf("entry 7 status %v after codec bounce", v.Entries[7].Status)
	}
}
