// Quickstart: run the paper's partially synchronous directory protocol
// (interactive consistency under partial synchrony) with nine authorities
// over a healthy network and inspect the consensus it produces.
//
// The experiment API is error-returning and context-aware: RunE reports
// invalid configuration as an error (no panics), and the typed
// res.Consensus() accessor hands back the agreed document for any protocol,
// as res.Records hands back each authority's part in it. Multi-phase setups
// (consensus → cache distribution → client availability) compose with
// partialtor.NewExperiment; see examples/cachedistribution.
package main

import (
	"context"
	"fmt"
	"log"

	"partialtor"
)

func main() {
	res, err := partialtor.RunE(context.Background(), partialtor.Scenario{
		Protocol:     partialtor.ICPS,
		Relays:       1000,
		EntryPadding: -1, // calibrated 2.5 kB/relay vote entries
		Seed:         42,
	})
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}

	fmt.Println("== partialtor quickstart ==")
	fmt.Printf("authorities: 9 (%v ...)\n", partialtor.AuthorityNames()[:3])
	if !res.Success {
		fmt.Println("consensus FAILED — unexpected on a healthy network")
		return
	}
	fmt.Printf("consensus generated in %.1fs of network time\n", res.Latency.Seconds())
	fmt.Printf("transport: %d messages, %.1f MB\n", res.Messages, float64(res.BytesSent)/1e6)

	consensus := res.Consensus()
	fmt.Printf("consensus document: %d relays aggregated from %d votes\n",
		len(consensus.Relays), consensus.NumVotes)
	fmt.Printf("encoded size: %.1f kB\n", float64(consensus.EncodedSize())/1e3)
	fmt.Printf("digest: %s\n", consensus.Digest().Hex())
}
