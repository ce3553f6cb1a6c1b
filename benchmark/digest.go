package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"partialtor/internal/dircache"
	"partialtor/internal/harness"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
)

// hashRun and hashDistribution fold an op's observable output into w. They
// hash the fields internal/harness/golden_test.go hashes — verdict, latency,
// transport totals and per-kind maps, the consensus digest, per-node bytes
// and logs, the coverage curve and every distribution counter — so a change
// that would move a golden digest moves an op digest here too.

func hashRun(w io.Writer, res *harness.RunResult) {
	fmt.Fprintf(w, "success=%v latency=%d doneAt=%d\n", res.Success, res.Latency, res.DoneAt)
	if c := res.Consensus(); c != nil {
		enc := c.Encode() // Digest and EncodedSize would each encode again
		fmt.Fprintf(w, "consensus=%x relays=%d size=%d\n", sig.Hash(enc), len(c.Relays), len(enc))
	}
	st := res.Net.Stats()
	fmt.Fprintf(w, "sent=%d delivered=%d dropped=%d bytesSent=%d bytesDelivered=%d\n",
		st.MessagesSent, st.MessagesDelivered, st.MessagesDropped, st.BytesSent, st.BytesDelivered)
	hashKindMap(w, "kindBytes", st.KindBytes)
	hashKindMap(w, "kindCount", st.KindCount)
	for i := 0; i < res.Net.N(); i++ {
		id := simnet.NodeID(i)
		fmt.Fprintf(w, "node=%d sent=%d recv=%d\n", i, res.Net.NodeBytesSent(id), res.Net.NodeBytesReceived(id))
		for _, e := range res.Net.NodeLog(id) {
			fmt.Fprintf(w, "log node=%d at=%d level=%s text=%s\n", i, e.At, e.Level, e.Text)
		}
	}
	if res.Distribution != nil {
		hashDistribution(w, res.Distribution)
	}
}

func hashKindMap(w io.Writer, label string, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s=%d\n", label, k, m[k])
	}
}

func hashDistribution(w io.Writer, d *dircache.Result) {
	fmt.Fprintf(w, "dist clients=%d covered=%d timeToTarget=%d\n", d.TotalClients, d.Covered, d.TimeToTarget)
	for _, p := range d.Points {
		fmt.Fprintf(w, "point at=%d count=%d\n", p.At, p.Count)
	}
	fmt.Fprintf(w, "egress auth=%d cache=%d fleet=%d\n", d.AuthorityEgress, d.CacheEgress, d.FleetEgress)
	fmt.Fprintf(w, "served fulls=%d diffs=%d failed=%d fallbacks=%d withDoc=%d\n",
		d.FullDocsServed, d.DiffsServed, d.FailedFetches, d.CacheFallbacks, d.CachesWithDoc)
	for i := range d.CacheServed {
		fmt.Fprintf(w, "cache=%d served=%d fetchedAt=%d\n", i, d.CacheServed[i], d.CacheFetchedAt[i])
	}
	fmt.Fprintf(w, "misled=%d stale=%d extra=%d distrusted=%v\n",
		d.Misled, d.StaleRejections, d.ExtraFetches, d.DistrustedCaches)
	fmt.Fprintf(w, "race waste=%d laggards=%d timeouts=%d\n", d.RaceWasteBytes, d.RaceLaggards, d.RaceTimeouts)
	fmt.Fprintf(w, "gossip pushes=%d pulls=%d serves=%d rounds=%d fromPeers=%d bytes=%d\n",
		d.GossipPushes, d.GossipPulls, d.GossipServes, d.GossipRounds, d.CachesFromPeers, d.GossipBytes)
	fmt.Fprintf(w, "retry bursts=%d dropped=%d\n", d.RetryBursts, d.RetryDropped)
	fmt.Fprintf(w, "faults events=%d below=%d\n", d.FaultEvents, d.TimeBelowTarget)
	for _, rec := range d.Recoveries {
		fmt.Fprintf(w, "recovery fault=%d cleared=%d mttr=%d\n", rec.Fault, rec.ClearedAt, rec.MTTR)
	}
	for _, rc := range d.Regions {
		fmt.Fprintf(w, "region=%s clients=%d covered=%d target=%d p50=%d p99=%d\n",
			rc.Name, rc.Clients, rc.Covered, rc.TimeToTarget, rc.P50, rc.P99)
	}
	for _, det := range d.ForkDetections {
		fmt.Fprintf(w, "fork at=%d caches=%v", det.At, det.Caches)
		if det.Proof != nil {
			fmt.Fprintf(w, " a=%x b=%x culprits=%v", det.Proof.A.Digest, det.Proof.B.Digest, det.Proof.Culprits())
		}
		fmt.Fprintln(w)
	}
}

// expectedDigestsFile holds the op digests pinned with -record, keyed by
// "<workload>/<kind>/seed=<scenario seed>".
const expectedDigestsFile = "expected_digests.json"

//go:embed expected_digests.json
var expectedDigestsJSON []byte

func loadExpectedDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(expectedDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedDigestsFile, err)
	}
	return m, nil
}

// recordDigests merges seen into the pinned file under dir (read from disk,
// not from the embedded copy, so successive -record runs of one build add
// up). The next build embeds the new file.
func recordDigests(dir string, seen map[string]string) error {
	path := filepath.Join(dir, expectedDigestsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(data, &pinned); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for k, v := range seen {
		pinned[k] = v
	}
	if data, err = json.MarshalIndent(pinned, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
