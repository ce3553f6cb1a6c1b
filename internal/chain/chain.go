package chain

import (
	"fmt"

	"partialtor/internal/sig"
)

// Link is one epoch's entry: the consensus digest bound to its predecessor.
type Link struct {
	Epoch  uint64
	Digest sig.Digest // digest of this epoch's consensus document
	Prev   sig.Digest // digest of the previous link's consensus (zero for genesis)
	Sigs   []sig.Signature
}

// LinkInput is the byte string authorities sign for a link.
func LinkInput(epoch uint64, digest, prev sig.Digest) []byte {
	return []byte(fmt.Sprintf("consensus-chain|%d|%x|%x", epoch, digest[:], prev[:]))
}

// SignLink produces an authority's signature over a link.
func SignLink(k *sig.KeyPair, epoch uint64, digest, prev sig.Digest) sig.Signature {
	return k.Sign("chain/link", LinkInput(epoch, digest, prev))
}

// SignedLink builds a link carrying the signatures of the first
// sig.Majority(len(keys)) authorities — the smallest set a verifier accepts.
func SignedLink(keys []*sig.KeyPair, epoch uint64, digest, prev sig.Digest) Link {
	l := Link{Epoch: epoch, Digest: digest, Prev: prev}
	for _, k := range keys[:sig.Majority(len(keys))] {
		l.Sigs = append(l.Sigs, SignLink(k, epoch, digest, prev))
	}
	return l
}

// VerifyLink checks one link's signature set in isolation: at least
// threshold distinct valid signatures, no duplicates. It carries no
// chain-position context — callers (e.g. client.Verifier) check epoch and
// predecessor themselves.
func VerifyLink(pubs *sig.Registry, threshold int, l Link) error {
	if err := sig.VerifyQuorum(pubs, "chain/link", LinkInput(l.Epoch, l.Digest, l.Prev), l.Sigs, threshold); err != nil {
		return fmt.Errorf("chain: %w", err)
	}
	return nil
}

// Chain is a verified sequence of links.
type Chain struct {
	pubs      *sig.Registry
	threshold int
	links     []Link
}

// New builds an empty chain verified against the authority set with the
// given signature threshold (Tor's majority: ⌊n/2⌋+1).
func New(pubs *sig.Registry, threshold int) *Chain {
	return &Chain{pubs: pubs, threshold: threshold}
}

// Len returns the number of links.
func (c *Chain) Len() int { return len(c.links) }

// Head returns the latest link.
func (c *Chain) Head() (Link, bool) {
	if len(c.links) == 0 {
		return Link{}, false
	}
	return c.links[len(c.links)-1], true
}

// Append verifies and adds the next link. The first link's Prev must be
// zero; every later link must reference the current head's digest and
// increment the epoch.
func (c *Chain) Append(l Link) error {
	if err := VerifyLink(c.pubs, c.threshold, l); err != nil {
		return err
	}
	head, ok := c.Head()
	if !ok {
		if !l.Prev.IsZero() {
			return fmt.Errorf("chain: genesis link has nonzero prev")
		}
		c.links = append(c.links, l)
		return nil
	}
	if l.Epoch <= head.Epoch {
		return fmt.Errorf("chain: rollback: epoch %d after %d", l.Epoch, head.Epoch)
	}
	if l.Epoch != head.Epoch+1 {
		return fmt.Errorf("chain: gap: epoch %d after %d", l.Epoch, head.Epoch)
	}
	if l.Prev != head.Digest {
		return fmt.Errorf("chain: fork: prev %s does not match head %s",
			l.Prev.Short(), head.Digest.Short())
	}
	c.links = append(c.links, l)
	return nil
}

// Verify re-checks the full chain by replaying it, so Append's rules are
// the only statement of what a valid chain is.
func (c *Chain) Verify() error {
	replay := New(c.pubs, c.threshold)
	for i, l := range c.links {
		if err := replay.Append(l); err != nil {
			return fmt.Errorf("chain: link %d: %w", i, err)
		}
	}
	return nil
}

// ForkProof is evidence that the authority set signed two different
// successors of the same parent — detectable misbehavior under proposal
// 239 even when both links carry valid signature sets.
type ForkProof struct {
	A, B Link
}

// DetectFork checks two links for a fork: same epoch and parent, different
// digests, both with valid signature sets.
func DetectFork(pubs *sig.Registry, threshold int, a, b Link) (*ForkProof, bool) {
	if a.Epoch != b.Epoch || a.Prev != b.Prev || a.Digest == b.Digest {
		return nil, false
	}
	if VerifyLink(pubs, threshold, a) != nil || VerifyLink(pubs, threshold, b) != nil {
		return nil, false
	}
	return &ForkProof{A: a, B: b}, true
}

// Culprits lists authorities that signed both sides of a fork.
func (p *ForkProof) Culprits() []int {
	inA := map[int]bool{}
	for _, s := range p.A.Sigs {
		inA[s.Signer] = true
	}
	var out []int
	for _, s := range p.B.Sigs {
		if inA[s.Signer] {
			out = append(out, s.Signer)
		}
	}
	return out
}
