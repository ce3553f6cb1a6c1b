package vote

import (
	"testing"
	"testing/quick"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

func aggregated(t *testing.T, relays, voters int) *Consensus {
	t.Helper()
	pop := relay.Population(relays, 21)
	order := relay.IdentityOrder(pop)
	docs := make([]*Document, voters)
	for a := range docs {
		view := relay.View(pop, order, a, 21)
		keys := sig.NewKeyPair(21, a)
		docs[a] = NewDocument(a, relay.AuthorityNames[a], keys.Fingerprint, 5, view)
	}
	c, err := Aggregate(docs, 9)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConsensusParseRoundTrip(t *testing.T) {
	c := aggregated(t, 80, 5)
	parsed, err := ParseConsensus(c.Encode())
	if err != nil {
		t.Fatalf("ParseConsensus: %v", err)
	}
	if parsed.ValidAfter != c.ValidAfter || parsed.NumVotes != c.NumVotes ||
		parsed.TotalAuthorities != c.TotalAuthorities {
		t.Fatalf("header mismatch: %+v", parsed)
	}
	if len(parsed.Voters) != len(c.Voters) {
		t.Fatalf("voters %v vs %v", parsed.Voters, c.Voters)
	}
	if len(parsed.Relays) != len(c.Relays) {
		t.Fatalf("relays %d vs %d", len(parsed.Relays), len(c.Relays))
	}
	for i := range c.Relays {
		if parsed.Relays[i] != c.Relays[i] {
			t.Fatalf("relay %d mismatch:\n got %+v\nwant %+v", i, parsed.Relays[i], c.Relays[i])
		}
	}
	// The re-encoded document hashes identically: a client can verify
	// authority signatures over the digest of what it parsed.
	if sig.Hash(parsed.Encode()) != c.Digest() {
		t.Fatal("digest changed across parse/encode")
	}
}

func TestConsensusParseQuick(t *testing.T) {
	f := func(relays, voters uint8) bool {
		r := int(relays%60) + 2
		v := int(voters%7) + 2
		pop := relay.Population(r, int64(r*31+v))
		order := relay.IdentityOrder(pop)
		docs := make([]*Document, v)
		for a := range docs {
			view := relay.View(pop, order, a, int64(v))
			keys := sig.NewKeyPair(3, a)
			docs[a] = NewDocument(a, relay.AuthorityNames[a], keys.Fingerprint, 1, view)
		}
		c, err := Aggregate(docs, 9)
		if err != nil {
			return false
		}
		parsed, err := ParseConsensus(c.Encode())
		if err != nil {
			return false
		}
		return sig.Hash(parsed.Encode()) == c.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConsensusParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"network-status-version 3\nvote-status vote\ndirectory-footer\n", // a vote, not a consensus
		"num-votes five of 9\ndirectory-footer\n",
		"network-status-version 3\nvote-status consensus\n", // missing footer
		"s Running\ndirectory-footer\n",
		"w Measured=5\ndirectory-footer\n",
	}
	for _, c := range cases {
		if _, err := ParseConsensus([]byte(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}
