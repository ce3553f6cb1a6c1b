package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/relay"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
	"partialtor/internal/vote"
)

// bg is the context the generator tests run under; cancellation behaviour
// has its own tests.
var bg = context.Background()

// mustRun is RunE for tests whose scenario is valid by construction.
func mustRun(t *testing.T, s Scenario) *RunResult {
	t.Helper()
	res, err := RunE(bg, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure1LogShape(t *testing.T) {
	r, err := Figure1(bg, Figure1Params{
		Relays:   400,
		Round:    15 * time.Second,
		Residual: 5e3, // near-total outage, scaled run
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Run.Success {
		t.Fatal("current protocol succeeded under the Figure 1 attack")
	}
	text := strings.Join(r.Lines, "\n")
	for _, want := range []string{
		"Time to fetch any votes that we're missing.",
		"We're missing votes from",
		"Asking every other authority for a copy.",
		"Time to compute a consensus.",
		"We don't have enough votes to generate a consensus:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("figure 1 log missing %q:\n%s", want, text)
		}
	}
	// Timestamps are wall-clock formatted.
	if !strings.HasPrefix(r.Lines[0], "Jan 01 ") {
		t.Fatalf("unexpected timestamp format: %s", r.Lines[0])
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestFigure6MatchesPaperAverage(t *testing.T) {
	r := Figure6()
	if len(r.Points) != 26 {
		t.Fatalf("series has %d points", len(r.Points))
	}
	if math.Abs(r.Average-relay.Figure6Average) > 0.05 {
		t.Fatalf("average %.2f, paper 7141.79", r.Average)
	}
	if !strings.Contains(r.Render(), "7141.79") {
		t.Fatal("render missing paper average")
	}
}

func TestFigure7RequirementGrowsWithRelays(t *testing.T) {
	r, err := Figure7(bg, Figure7Params{
		RelayCounts: []int{200, 600, 1200},
		Round:       15 * time.Second,
		MaxMbit:     60,
		Precision:   0.5,
	}, sweep.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	prev := -1.0
	for _, row := range r.Rows {
		if row.RequiredMbit <= 0 {
			t.Fatalf("no requirement found for %d relays", row.Relays)
		}
		if row.RequiredMbit < prev {
			t.Fatalf("requirement not monotone: %v", r.Rows)
		}
		prev = row.RequiredMbit
	}
	// The largest configuration needs far more than the 0.5 Mbit/s left
	// under DDoS — the attack effectiveness claim.
	if residual := attack.ResidualUnderDDoS / 1e6; r.Rows[2].RequiredMbit <= residual {
		t.Fatalf("requirement %.2f not above DDoS residual %.2f", r.Rows[2].RequiredMbit, residual)
	}
	if !strings.Contains(r.Render(), "Figure 7") {
		t.Fatal("render missing title")
	}
}

func TestFigure10ShapeScaled(t *testing.T) {
	r, err := Figure10(bg, Figure10Params{
		BandwidthsMbit: []float64{100, 10},
		RelayCounts:    []int{300, 1500},
		Round:          15 * time.Second,
	}, sweep.Params{})
	if err != nil {
		t.Fatal(err)
	}
	// At ample bandwidth the current protocol and ours succeed everywhere;
	// the synchronous protocol carries n·d bundles, so with 15s rounds its
	// threshold already falls between these two relay counts even at
	// 100 Mbit/s (at paper scale — 150s rounds — the same happens one
	// order of magnitude higher, cf. EXPERIMENTS.md).
	for _, proto := range []Protocol{Current, ICPS} {
		for _, relays := range []int{300, 1500} {
			c, ok := Fig10Lookup(r.Rows, proto, 100, relays)
			if !ok || c.Latency == simnet.Never {
				t.Fatalf("%v failed at 100 Mbit/s with %d relays", proto, relays)
			}
		}
	}
	if c, _ := Fig10Lookup(r.Rows, Synchronous, 100, 300); c.Latency == simnet.Never {
		t.Fatal("synchronous protocol failed at its comfortable load")
	}
	// At 10 Mbit/s: the current protocol fails only at the larger count;
	// the synchronous protocol fails at both (n·d bundles); ours succeeds
	// everywhere.
	if c, _ := Fig10Lookup(r.Rows, Current, 10, 300); c.Latency == simnet.Never {
		t.Fatal("current protocol failed at its comfortable load")
	}
	if c, _ := Fig10Lookup(r.Rows, Current, 10, 1500); c.Latency != simnet.Never {
		t.Fatal("current protocol succeeded past its deadline budget")
	}
	if c, _ := Fig10Lookup(r.Rows, Synchronous, 10, 1500); c.Latency != simnet.Never {
		t.Fatal("synchronous protocol succeeded past its deadline budget")
	}
	for _, relays := range []int{300, 1500} {
		c, _ := Fig10Lookup(r.Rows, ICPS, 10, relays)
		if c.Latency == simnet.Never {
			t.Fatalf("ICPS failed at 10 Mbit/s with %d relays", relays)
		}
	}
	// Failure thresholds are ordered: synchronous collapses first.
	syncTh := fig10FailureThreshold(r.Rows, Synchronous, 10)
	curTh := fig10FailureThreshold(r.Rows, Current, 10)
	if syncTh == 0 || (curTh != 0 && syncTh > curTh) {
		t.Fatalf("thresholds: sync=%d current=%d; want sync ≤ current", syncTh, curTh)
	}
	if fig10FailureThreshold(r.Rows, ICPS, 10) != 0 {
		t.Fatal("ICPS has a failure threshold at 10 Mbit/s")
	}
	// Latency grows with relay count for the successful ICPS cells.
	small, _ := Fig10Lookup(r.Rows, ICPS, 10, 300)
	big, _ := Fig10Lookup(r.Rows, ICPS, 10, 1500)
	if big.Latency <= small.Latency {
		t.Fatalf("ICPS latency not growing: %v vs %v", small.Latency, big.Latency)
	}
	if !strings.Contains(r.Render(), "Figure 10 panel: 10 Mbit/s") {
		t.Fatal("render missing panel")
	}
}

func TestFigure11RecoveryScaled(t *testing.T) {
	r, err := Figure11(bg, Figure11Params{
		RelayCounts: []int{200, 800},
		Outage:      time.Minute,
	}, sweep.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Recovery == simnet.Never {
			t.Fatalf("no recovery for %d relays", row.Relays)
		}
		if row.Recovery > 30*time.Second {
			t.Fatalf("recovery %v for %d relays; want seconds", row.Recovery, row.Relays)
		}
		if row.Recovery <= 0 {
			t.Fatalf("consensus for %d relays landed during the outage", row.Relays)
		}
		if row.Baseline != FallbackLatency {
			t.Fatalf("baseline %v, want %v", row.Baseline, FallbackLatency)
		}
	}
	if !strings.Contains(r.Render(), "Figure 11") {
		t.Fatal("render missing title")
	}
}

func TestTable1Comparison(t *testing.T) {
	r, err := Table1(bg, Table1Params{Relays: 300, Bandwidth: 100e6, Round: 20 * time.Second}, sweep.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	byProto := map[Protocol]Table1Row{}
	for _, row := range r.Rows {
		byProto[row.Protocol] = row
		if row.MeasuredBytes <= 0 || row.MeasuredMessages <= 0 {
			t.Fatalf("%v has empty measurements", row.Protocol)
		}
	}
	// The synchronous protocol's n·d bundles dominate everything else.
	if byProto[Synchronous].MeasuredBytes <= 2*byProto[Current].MeasuredBytes {
		t.Fatalf("synchronous bytes %d not ≫ current %d",
			byProto[Synchronous].MeasuredBytes, byProto[Current].MeasuredBytes)
	}
	if byProto[Synchronous].MeasuredBytes <= 2*byProto[ICPS].MeasuredBytes {
		t.Fatalf("synchronous bytes %d not ≫ ICPS %d",
			byProto[Synchronous].MeasuredBytes, byProto[ICPS].MeasuredBytes)
	}
	// Ours stays within a small factor of the current protocol (same n²d
	// document term).
	if byProto[ICPS].MeasuredBytes > 3*byProto[Current].MeasuredBytes {
		t.Fatalf("ICPS bytes %d more than 3x current %d",
			byProto[ICPS].MeasuredBytes, byProto[Current].MeasuredBytes)
	}
	out := r.Render()
	for _, want := range []string{"O(n²d + n²κ)", "O(n³d + n⁴κ)", "O(n²d + n⁴κ)", "Partial Synchrony"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestTable2Rounds(t *testing.T) {
	r, err := Table2(bg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 9 {
		t.Fatalf("total rounds %d, want 9 (2 + 5 + 2)", r.Total)
	}
	if !strings.Contains(r.Render(), "Table 2") {
		t.Fatal("render missing title")
	}
}

func TestCostTable(t *testing.T) {
	r := CostTable()
	if math.Abs(r.CostPerInstance-0.074) > 0.0005 {
		t.Fatalf("cost per instance $%.4f, want $0.074", r.CostPerInstance)
	}
	if math.Abs(r.CostPerMonth-53.28) > 0.01 {
		t.Fatalf("cost per month $%.2f, want $53.28", r.CostPerMonth)
	}
	out := r.Render()
	if !strings.Contains(out, "$53.28") || !strings.Contains(out, "240 Mbit/s") {
		t.Fatalf("render missing headline numbers:\n%s", out)
	}
}

// TestOverlayFillsUnsetFields pins the "unset fields = paper scale" rule the
// generators share: zero fields and empty slices take the preset's value,
// set fields win.
func TestOverlayFillsUnsetFields(t *testing.T) {
	got := overlay(Figure7Params{Round: time.Second, RelayCounts: []int{}}, figure7Paper)
	want := figure7Paper
	want.Round = time.Second
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overlay = %+v, want %+v", got, want)
	}
}

// TestFirstTurnMatchesALinearScan holds the threshold searches' bisection,
// on every ladder of 0-64 rungs and every turn point (n: never), to what a
// scan from the bottom finds, within ⌈log₂(n+1)⌉ in-range probes; and a
// probe's error, at whichever call, ends the search and is returned.
func TestFirstTurnMatchesALinearScan(t *testing.T) {
	errProbe := errors.New("probe failed")
	for n := 0; n <= 64; n++ {
		bound := bits.Len(uint(n)) // ⌈log₂(n+1)⌉
		for turn := 0; turn <= n; turn++ {
			calls := 0
			got, err := firstTurn(n, func(i int) (bool, error) {
				calls++
				if i < 0 || i >= n {
					t.Fatalf("n=%d: probed rung %d", n, i)
				}
				return i >= turn, nil
			})
			if err != nil || got != turn || calls > bound {
				t.Fatalf("n=%d, turn at %d: got %d, %v after %d probes; want %d within %d", n, turn, got, err, calls, turn, bound)
			}
			for fail := 1; fail <= calls; fail++ {
				probes := 0
				_, err := firstTurn(n, func(i int) (bool, error) {
					if probes++; probes == fail {
						return false, errProbe
					}
					return i >= turn, nil
				})
				if !errors.Is(err, errProbe) || probes != fail {
					t.Fatalf("n=%d, turn at %d, probe %d fails: got %v after %d probes", n, turn, fail, err, probes)
				}
			}
		}
	}
}

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{}.withDefaults()
	if s.N != 9 || s.Relays != 8000 || s.Bandwidth != DefaultBandwidth || s.Round != 150*time.Second {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if Current.String() != "Current" || Synchronous.String() != "Synchronous" || ICPS.String() != "Ours" {
		t.Fatal("protocol names wrong")
	}
}

func TestNegativeCountsAreErrors(t *testing.T) {
	// Returned before any input is built: the protocols share one inputs
	// entry, and each try after the first would have met its failed build.
	// So is an entry padding past the bound, which would overflow a vote's
	// size.
	for _, tc := range []struct {
		bad   Scenario
		value string // as the error must name it
	}{
		{Scenario{N: -1, Relays: 100}, "-1"},
		{Scenario{Relays: -1}, "-1"},
		{Scenario{Relays: 100, EntryPadding: vote.MaxEntryPadding + 1}, fmt.Sprint(vote.MaxEntryPadding + 1)},
	} {
		bad := tc.bad
		for _, p := range []Protocol{Current, Synchronous, ICPS} {
			bad.Protocol = p
			if _, err := RunE(bg, bad); err == nil || !strings.Contains(err.Error(), tc.value) {
				t.Fatalf("%+v: error %v, want the bad count named", bad, err)
			}
		}
		mustRun(t, Scenario{Relays: 100, EntryPadding: 0, Round: 10 * time.Second})
	}
}

// TestInputsCaching: each part of an entry is shared by every entry it does
// not differ from. Two paddings of one population share its keys and views
// (so its roster), another relay count at the same (N, seed) shares the keys,
// and another seed shares nothing. Past the relay budget the least recently
// used entry goes, and an entry larger than the budget is kept alone. The
// budget counts a population once, however many entries share it.
func TestInputsCaching(t *testing.T) {
	s := Scenario{Relays: 120, Seed: 5, EntryPadding: -1}
	k1, d1 := Inputs(s)
	k2, d2 := Inputs(s)
	if &k1[0] != &k2[0] || d1[0] != d2[0] {
		t.Fatal("inputs not cached for identical scenarios")
	}
	if allocs := testing.AllocsPerRun(10, func() { Inputs(s) }); allocs != 0 {
		t.Fatalf("a cache hit allocates %v times", allocs)
	}
	unpadded := s
	unpadded.EntryPadding = 0
	k3, d3 := Inputs(unpadded)
	if &k3[0] != &k1[0] || d3[0].Relays.Roster != d1[0].Relays.Roster {
		t.Fatal("two paddings of one population hold their own keys or roster")
	}
	if d3[0] == d1[0] || d3[0].EncodedSize() >= d1[0].EncodedSize() {
		t.Fatal("two paddings share a sealed vote")
	}
	k4, d4 := Inputs(Scenario{Relays: 140, Seed: 5, EntryPadding: -1})
	if d4[0] == d1[0] || d4[0].Relays.Roster == d1[0].Relays.Roster {
		t.Fatal("cache returned stale inputs")
	}
	if k4[0] != k1[0] {
		t.Fatal("another relay count at the same (N, seed) holds its own key pairs")
	}
	if k5, _ := Inputs(Scenario{Relays: 120, Seed: 6, EntryPadding: -1}); k5[0] == k1[0] {
		t.Fatal("another seed shares the key pairs")
	}

	// Entries are added unbuilt, so the budget is passed without building
	// populations of its size.
	defer clearInputs()
	clearInputs()
	third := inputsRelayBudget / 3
	oldest, touched := inputsFor(Scenario{Relays: third, Seed: 1}.withDefaults()), inputsFor(Scenario{Relays: third, Seed: 2}.withDefaults())
	inputsFor(Scenario{Relays: third, Seed: 3}.withDefaults())
	if inputsFor(Scenario{Relays: third, Seed: 1}.withDefaults()) != oldest {
		t.Fatal("an entry within the budget was not kept")
	}
	newest := inputsFor(Scenario{Relays: third, Seed: 4}.withDefaults())
	if got := inputsCache.entries; len(got) != 3 || slices.Contains(got, touched) || got[1] != oldest || got[2] != newest {
		t.Fatalf("past the budget the cache holds %d entries, want the three touched last", len(got))
	}
	huge := inputsFor(Scenario{Relays: inputsRelayBudget + 1, Seed: 1}.withDefaults())
	if got := inputsCache.entries; len(got) != 1 || got[0] != huge || got[0].keys[0] != oldest.keys[0] {
		t.Fatalf("the cache holds %d entries, want the one past the budget alone, on its (N, seed)'s keys", len(got))
	}

	// Two paddings of one population hold its relays once: the four entries
	// below hold three populations, exactly the budget. One more population
	// evicts the least recently used entries until it fits, and the first of
	// them frees nothing, since the other padding still holds its population.
	clearInputs()
	padded := inputsFor(Scenario{Relays: third, Seed: 1, EntryPadding: -1}.withDefaults())
	other := inputsFor(Scenario{Relays: third, Seed: 2}.withDefaults())
	unpaddedToo := inputsFor(Scenario{Relays: third, Seed: 1}.withDefaults())
	last := inputsFor(Scenario{Relays: third, Seed: 3}.withDefaults())
	if got := inputsCache.entries; !slices.Equal(got, []*inputsEntry{padded, other, unpaddedToo, last}) {
		t.Fatalf("the cache holds %d entries, want all four: two paddings of one population count its relays once", len(got))
	}
	small := inputsFor(Scenario{Relays: third / 4, Seed: 4}.withDefaults())
	if got := inputsCache.entries; !slices.Equal(got, []*inputsEntry{unpaddedToo, last, small}) {
		t.Fatalf("the cache holds %d entries, want the three touched last: dropping one padding of a population still held frees nothing", len(got))
	}
}

// clearInputs empties the inputs cache.
func clearInputs() {
	inputsCache.mu.Lock()
	inputsCache.entries = nil
	inputsCache.mu.Unlock()
}

// TestInputsConcurrentUse: eight goroutines race on two keys that are not
// cached yet. Each key is built once, inside its entry's sync.Once, so every
// caller of a key holds the very keys and votes a later call returns.
func TestInputsConcurrentUse(t *testing.T) {
	scenario := func(g int) Scenario { return Scenario{Relays: 211 + 100*(g%2), EntryPadding: -1, Seed: 5} }
	type held struct {
		keys []*sig.KeyPair
		docs []*vote.Document
	}
	// Start from an empty cache: were it full, inserting the second key could
	// evict the first, and a rebuilt entry hands out new pointers by design.
	clearInputs()
	got := make([]held, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g].keys, got[g].docs = Inputs(scenario(g))
		}()
	}
	wg.Wait()
	for g, h := range got {
		keys, docs := Inputs(scenario(g))
		if len(h.keys) != 9 || len(h.docs) != 9 {
			t.Fatalf("goroutine %d: %d keys, %d docs", g, len(h.keys), len(h.docs))
		}
		for i := range keys {
			if h.keys[i] != keys[i] || h.docs[i] != docs[i] {
				t.Fatalf("goroutine %d holds its own authority %d", g, i)
			}
		}
	}
	if got[0].docs[0] == got[1].docs[0] {
		t.Fatal("two keys share a vote")
	}
}

// TestInputsMatchSerialBuild: the parallel build gives each authority the
// key, view and sealed vote a serial build gives it, with fewer, as many and
// more authorities than there are cores, and at the default relay count, at
// the calibrated padding and unpadded. The serial build lists each
// authority's own relay.View over the shared roster, which every vote must
// hold.
func TestInputsMatchSerialBuild(t *testing.T) {
	for _, shape := range []Scenario{
		{N: 1, Relays: 150}, {N: 4, Relays: 150}, {N: 9, Relays: 150}, {N: 13, Relays: 150}, {N: 9, Relays: 0},
	} {
		for _, padding := range []int{-1, 0} {
			s := shape
			s.EntryPadding, s.Seed = padding, 3
			keys, docs := Inputs(s)
			s = s.withDefaults()
			wantKeys := sig.Authorities(s.Seed, s.N)
			pop := relay.Population(s.Relays, s.Seed)
			_, rank := relay.IdentityOrder(pop)
			if len(keys) != s.N || len(docs) != s.N {
				t.Fatalf("N=%d relays=%d padding=%d: %d keys, %d docs", s.N, s.Relays, s.EntryPadding, len(keys), len(docs))
			}
			for i, k := range wantKeys {
				name := fmt.Sprintf("auth%d", i)
				if i < len(relay.AuthorityNames) {
					name = relay.AuthorityNames[i]
				}
				want := vote.NewDocument(i, name, k.Fingerprint, 1, vote.View{Roster: docs[0].Relays.Roster, Listings: relay.View(pop, rank, i, s.Seed)})
				want.EntryPadding = s.EntryPadding
				got := docs[i]
				switch {
				case !bytes.Equal(keys[i].Public, k.Public) || keys[i].Fingerprint != k.Fingerprint:
					t.Fatalf("N=%d relays=%d padding=%d: key %d differs from the serial build", s.N, s.Relays, s.EntryPadding, i)
				case got.AuthorityIndex != i || got.AuthorityName != name || got.EntryPadding != want.EntryPadding || got.Fingerprint != k.Fingerprint:
					t.Fatalf("N=%d relays=%d padding=%d: vote %d header differs from the serial build", s.N, s.Relays, s.EntryPadding, i)
				case got.EncodedSize() != want.EncodedSize() || got.Digest() != want.Digest():
					t.Fatalf("N=%d relays=%d padding=%d: vote %d seals to %d bytes %x, serial %d bytes %x",
						s.N, s.Relays, s.EntryPadding, i, got.EncodedSize(), got.Digest(), want.EncodedSize(), want.Digest())
				case !slices.Equal(got.Relays.Listings, want.Relays.Listings):
					t.Fatalf("N=%d relays=%d padding=%d: vote %d lists other relays than the serial build", s.N, s.Relays, s.EntryPadding, i)
				case got.Relays.Roster != docs[0].Relays.Roster:
					t.Fatalf("N=%d relays=%d padding=%d: vote %d lists another roster than vote 0", s.N, s.Relays, s.EntryPadding, i)
				}
			}
		}
	}
}

func TestRunProducesTransportStats(t *testing.T) {
	run := mustRun(t, Scenario{Protocol: Current, Relays: 100, EntryPadding: 0, Round: 10 * time.Second})
	if !run.Success {
		t.Fatal("small healthy run failed")
	}
	if run.BytesSent <= 0 || run.Messages <= 0 {
		t.Fatalf("missing stats: %+v", run)
	}
	if run.Net.Stats().KindBytes["dirv3/vote"] == 0 {
		t.Fatal("vote bytes not accounted")
	}
}

// TestParallelSweepByteIdentical is the grid engine's end-to-end guarantee:
// the same figure sweep run serially (1 worker) and fanned out over 8
// workers must render byte-identical tables — result order is by cell rank,
// never by completion order, and every scenario run is deterministic.
func TestParallelSweepByteIdentical(t *testing.T) {
	fig10 := func(workers int) string {
		r, err := Figure10(bg, Figure10Params{
			BandwidthsMbit: []float64{100, 10},
			RelayCounts:    []int{200, 400, 800},
			Round:          15 * time.Second,
		}, sweep.Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	if serial, parallel := fig10(1), fig10(8); serial != parallel {
		t.Fatalf("Figure 10 diverged between serial and 8-worker runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	fig11 := func(workers int) string {
		r, err := Figure11(bg, Figure11Params{
			RelayCounts: []int{150, 250, 350},
			Outage:      time.Minute,
		}, sweep.Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	if serial, parallel := fig11(1), fig11(8); serial != parallel {
		t.Fatalf("Figure 11 diverged between serial and 8-worker runs:\n%s\nvs\n%s", serial, parallel)
	}
}

// fig10FailureThreshold returns the first relay count of the sweep at which
// the protocol fails for the given bandwidth, or 0 if it never fails.
func fig10FailureThreshold(cells []Fig10Cell, proto Protocol, mbit float64) int {
	for _, c := range cells {
		if c.Protocol == proto && c.BandwidthMbit == mbit && c.Latency == simnet.Never {
			return c.Relays
		}
	}
	return 0
}

// TestInputsDocumentsAreReadOnlyUnderAParallelSweep: Inputs hands the same
// sealed documents to every sweep worker, so once built their encoding, size
// and digest may only ever be read: the size stays the length of the padded
// bytes Encode renders and the digest the hash of their natural rendering.
// Under -race this fails if Encode or Digest still writes a field on a
// document another goroutine holds.
func TestInputsDocumentsAreReadOnlyUnderAParallelSweep(t *testing.T) {
	base := Scenario{Relays: 120, EntryPadding: -1, Round: 15 * time.Second, Seed: 7}
	_, docs := Inputs(base)
	// natural is a vote's rendering without its pad lines.
	natural := func(enc []byte) []byte {
		var out []byte
		for line := range bytes.Lines(enc) {
			if !bytes.HasPrefix(line, []byte("pad ")) {
				out = append(out, line...)
			}
		}
		return out
	}
	want := make([]sig.Digest, len(docs))
	for i, d := range docs {
		want[i] = sig.Hash(natural(d.Encode()))
	}

	sweeping := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for i, d := range docs {
					if d.Digest() != want[i] || sig.Hash(natural(d.Encode())) != want[i] || d.EncodedSize() != int64(len(d.Encode())) {
						t.Errorf("document %d changed under a reader", i)
						return
					}
				}
				select {
				case <-sweeping:
					return
				default:
				}
			}
		}()
	}

	grid := sweep.MustNew(sweep.Of("protocol", Current, Synchronous, ICPS), sweep.Floats("mbit", 250, 100, 50))
	results := sweep.RunParams(bg, grid, sweep.Params{Workers: 4}, func(ctx context.Context, c sweep.Cell) (sig.Digest, error) {
		s := base
		s.Protocol, s.Bandwidth = c.Value("protocol").(Protocol), c.Float("mbit")*1e6
		if _, held := Inputs(s); held[0] != docs[0] {
			return sig.Digest{}, fmt.Errorf("cell %v built its own documents", c)
		}
		res, err := RunE(ctx, s)
		if err != nil || res.Consensus() == nil {
			return sig.Digest{}, err
		}
		return res.Consensus().Digest(), nil
	})
	close(sweeping)
	readers.Wait()
	if err := sweep.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	// Same votes in, same consensus out, whichever protocol and worker.
	for _, r := range results {
		if r.Value != results[0].Value || r.Value.IsZero() {
			t.Fatalf("cell %v: consensus digest %s, cell %v: %s", r.Cell, r.Value.Short(), results[0].Cell, results[0].Value.Short())
		}
	}
}
