package core

import (
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

// Result summarizes one ICPS run.
type Result struct {
	// Per-authority outcomes (index-aligned; Byzantine/silent authorities
	// report zero values).
	DoneAt     []time.Duration
	ConsDigest []sig.Digest

	// Aggregate view.
	Success   bool          // every correct authority published
	DoneCount int           // authorities that published
	Latency   time.Duration // max DoneAt over correct authorities
	OKCount   int           // non-⊥ entries of the agreed vector
	Consensus *vote.Consensus
}

// Collect extracts the outcome after the network has run long enough.
// correct(i) distinguishes honest authorities (Byzantine ones are exempt
// from the success criteria); nil means all are correct.
func Collect(auths []*Authority, cfg Config, correct func(i int) bool) *Result {
	if correct == nil {
		correct = func(i int) bool { return !cfg.Silent[i] && cfg.Equivocators[i] == nil }
	}
	res := &Result{Latency: simnet.Never, Success: true}
	honest := make([]bool, len(auths))
	for i, a := range auths {
		res.DoneAt = append(res.DoneAt, a.doneAt)
		res.ConsDigest = append(res.ConsDigest, a.consDigest)
		if a.done {
			res.DoneCount++
			if res.Consensus == nil {
				res.Consensus = a.consensus
			}
			if a.decided != nil && res.OKCount == 0 {
				res.OKCount = a.decided.OKCount()
			}
		}
		honest[i] = correct(i)
		if honest[i] && !a.done {
			res.Success = false
		}
	}
	if res.DoneCount == 0 {
		res.Success = false
	}
	if res.Success {
		res.Latency = simnet.Latest(res.DoneAt, honest)
	}
	return res
}
