package relay

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFlagsStringRoundTrip(t *testing.T) {
	cases := []Flags{
		0,
		FlagRunning,
		FlagRunning | FlagValid | FlagFast,
		FlagGuard | FlagExit | FlagHSDir | FlagV2Dir,
	}
	for _, f := range cases {
		got, err := ParseFlags(f.String())
		if err != nil {
			t.Fatalf("ParseFlags(%q): %v", f.String(), err)
		}
		if got != f {
			t.Fatalf("round trip %q: got %v, want %v", f.String(), got, f)
		}
	}
	if _, err := ParseFlags("Bogus"); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestFlagsQuickRoundTrip(t *testing.T) {
	f := func(bits uint16) bool {
		fl := Flags(bits) & (1<<flagCount - 1)
		got, err := ParseFlags(fl.String())
		return err == nil && got == fl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsAppendTo: every flag set, stray high bits included, appends after
// what is already there, in the spelling of the old []string + strings.Join
// String.
func TestFlagsAppendTo(t *testing.T) {
	for bits := 0; bits < 1<<16; bits += 7 {
		f := Flags(bits)
		var parts []string
		for i, name := range flagNames {
			if f&(1<<i) != 0 {
				parts = append(parts, name)
			}
		}
		want := strings.Join(parts, " ")
		if got := string(f.AppendTo([]byte("s "))); got != "s "+want || f.String() != want {
			t.Fatalf("Flags(%#x): AppendTo %q, String %q, want %q", bits, got, f.String(), want)
		}
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := Population(100, 7)
	b := Population(100, 7)
	if len(a) != 100 {
		t.Fatalf("len=%d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("population not deterministic at %d", i)
		}
	}
	c := Population(100, 8)
	same := 0
	for i := range a {
		if a[i].Identity == c[i].Identity {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical identities")
	}
}

func TestPopulationInvariants(t *testing.T) {
	pop := Population(2000, 1)
	exit := 0
	for i, d := range pop {
		if !d.Flags.Has(FlagRunning | FlagValid) {
			t.Fatalf("relay %d missing Running|Valid", i)
		}
		if d.Flags.Has(FlagGuard) && !d.Flags.Has(FlagFast|FlagStable) {
			t.Fatalf("relay %d is Guard but not Fast+Stable", i)
		}
		if d.Bandwidth == 0 {
			t.Fatalf("relay %d has zero bandwidth", i)
		}
		if d.Flags.Has(FlagExit) {
			exit++
			if d.ExitPolicy == "reject 1-65535" {
				t.Fatalf("exit relay %d rejects everything", i)
			}
		}
	}
	frac := float64(exit) / float64(len(pop))
	if frac < 0.10 || frac > 0.30 {
		t.Fatalf("exit fraction %.2f outside sanity band", frac)
	}
}

// materialise is what a view lists: each listed relay of pop with the
// listing's flags and measurement, in the view's order.
func materialise(pop []Descriptor, order []int32, view []Listing) []Descriptor {
	out := make([]Descriptor, len(view))
	for i, l := range view {
		out[i] = pop[order[l.Index]]
		out[i].Flags, out[i].HasMeasured, out[i].Measured = l.Flags, l.HasMeasured, l.Measured
	}
	return out
}

func TestViewPerturbation(t *testing.T) {
	pop := Population(1000, 3)
	order, rank := IdentityOrder(pop)
	v0 := View(pop, rank, 0, 3)
	v0again := View(pop, rank, 0, 3)
	if !slices.Equal(v0, v0again) {
		t.Fatal("View not deterministic")
	}
	if len(v0) == len(pop) {
		t.Fatal("view dropped no relays; viewDropRate ineffective")
	}
	if len(v0) < int(0.95*float64(len(pop))) {
		t.Fatalf("view dropped too many relays: %d of %d", len(v0), len(pop))
	}
	v1 := View(pop, rank, 1, 3)
	diff := 0
	// Compare overlapping identities' flags.
	byID := make(map[Identity]Descriptor, len(v0))
	for _, d := range materialise(pop, order, v0) {
		byID[d.Identity] = d
	}
	for _, d := range materialise(pop, order, v1) {
		if o, ok := byID[d.Identity]; ok && o.Flags != d.Flags {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("two authority views agree on every flag; perturbation ineffective")
	}
}

// TestViewIsCompact: a view allocates its listings and its random source,
// and nothing per relay but its 16-byte listing: at most 2 allocations, and
// at most 32 bytes per listed relay beyond what the random source alone
// allocates. A view used to copy each listed relay's 152-byte descriptor.
func TestViewIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Listing{}); n != 16 {
		t.Errorf("a listing is %d bytes, want 16", n)
	}
	source := allocated(func() { sinkRand = rand.New(rand.NewSource(1)) })
	for _, n := range []int{300, 3000} {
		pop := Population(n, 1)
		_, rank := IdentityOrder(pop)
		var view []Listing
		if allocs := testing.AllocsPerRun(10, func() { view = View(pop, rank, 4, 1) }); allocs > 2 {
			t.Errorf("a view of %d relays allocated %.0f times, want at most 2", n, allocs)
		}
		bytes := allocated(func() { view = View(pop, rank, 4, 1) })
		if perRelay := float64(bytes-source) / float64(len(view)); perRelay > 32 {
			t.Errorf("a view of %d relays allocated %d bytes, %d of them the random source's: %.1f bytes per listed relay, want at most 32",
				n, bytes, source, perRelay)
		}
	}
}

var sinkRand *rand.Rand

// allocated is how many bytes of heap f allocates, the mean over ten calls on
// this goroutine.
func allocated(f func()) uint64 {
	const runs = 10
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// referenceView is View as it was before views shared one order: perturb a
// copy of each relay walking the population, then sort the copies by
// identity.
func referenceView(pop []Descriptor, auth int, seed int64) []Descriptor {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(auth)))
	out := make([]Descriptor, 0, len(pop))
	votable := []Flags{FlagFast, FlagStable, FlagGuard, FlagExit, FlagHSDir, FlagV2Dir}
	for _, d := range pop {
		if rng.Float64() < viewDropRate {
			continue
		}
		c := d
		if rng.Float64() < viewFlagFlipRate {
			c.Flags ^= votable[rng.Intn(len(votable))]
		}
		if rng.Float64() < viewMeasureRate {
			c.HasMeasured = true
			j := 1 + float64((float64(rng.Float64())*2-1)*viewMeasureJitter)
			c.Measured = uint64(float64(float64(d.Measured) * j))
			if c.Measured == 0 {
				c.Measured = 1
			}
		} else {
			c.HasMeasured = false
			c.Measured = 0
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].Identity[:], out[j].Identity[:]) < 0
	})
	return out
}

// TestViewMatchesSortedReference: a population's identities are distinct,
// which is what lets every view share one order, and a view listed in that
// order is the reference view, which sorts its own copies.
func TestViewMatchesSortedReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 300, 3000} {
		for _, seed := range []int64{1, 7, -42} {
			pop := Population(n, seed)
			seen := make(map[Identity]bool, n)
			for i, d := range pop {
				if seen[d.Identity] {
					t.Fatalf("Population(%d, %d): identity of relay %d repeats", n, seed, i)
				}
				seen[d.Identity] = true
			}
			order, rank := IdentityOrder(pop)
			for k, i := range order {
				if rank[i] != int32(k) {
					t.Fatalf("n=%d seed=%d: relay %d is %d-th in order, ranked %d", n, seed, i, k, rank[i])
				}
			}
			for auth := 0; auth <= 8; auth++ {
				got, want := materialise(pop, order, View(pop, rank, auth, seed)), referenceView(pop, auth, seed)
				if len(got) != len(want) {
					t.Fatalf("n=%d seed=%d auth=%d: %d relays, reference %d", n, seed, auth, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d seed=%d auth=%d: relay %d is %+v, reference %+v", n, seed, auth, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPopulationNames: nicknames and addresses are spelled as fmt spelled
// them, past six digits and past the 16-bit boundary too.
func TestPopulationNames(t *testing.T) {
	check := func(i int, nick, addr string) {
		t.Helper()
		if want := fmt.Sprintf("relay%06d", i); nick != want {
			t.Fatalf("relay %d: nickname %q, want %q", i, nick, want)
		}
		if want := fmt.Sprintf("10.%d.%d.%d", (i>>16)&0xff, (i>>8)&0xff, i&0xff); addr != want {
			t.Fatalf("relay %d: address %q, want %q", i, addr, want)
		}
	}
	for i, d := range Population(300, 5) {
		check(i, d.Nickname, d.Address)
	}
	for _, i := range []int{0, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 12_345_678, 65_535, 65_536, 65_537, 1<<24 + 257} {
		check(i, string(appendNickname(nil, i)), string(appendAddress(nil, i)))
	}
}

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"0.4.8.10", "0.4.8.10", 0},
		{"0.4.8.9", "0.4.8.10", -1},
		{"0.4.8.10", "0.4.8.9", 1},
		{"0.4.9.1", "0.4.8.12", 1},
		{"1.0", "0.9.9.9", 1},
		{"0.4.8", "0.4.8.1", -1},
	}
	for _, c := range cases {
		if got := CompareVersions(c.a, c.b); got != c.want {
			t.Errorf("CompareVersions(%q,%q)=%d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareVersionsQuickAntisymmetry(t *testing.T) {
	f := func(a, b uint8, c, d uint8) bool {
		va := versionPool[int(a)%len(versionPool)]
		vb := versionPool[int(b)%len(versionPool)]
		return CompareVersions(va, vb) == -CompareVersions(vb, va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityString(t *testing.T) {
	var id Identity
	id[0], id[19] = 0xAB, 0x01
	s := id.String()
	if len(s) != 40 || s[:2] != "AB" || s[38:] != "01" {
		t.Fatalf("identity string %q", s)
	}
	if got := string(id.AppendTo([]byte("r "))); got != "r "+s {
		t.Fatalf("AppendTo wrote %q after its prefix, String says %q", got, s)
	}
}

func TestMetricsSeries(t *testing.T) {
	series := MetricsSeries()
	if len(series) != 26 {
		t.Fatalf("series length %d, want 26 (2022-09..2024-10)", len(series))
	}
	if series[0].Date() != "2022-09" {
		t.Fatalf("series starts at %s", series[0].Date())
	}
	if series[len(series)-1].Date() != "2024-10" {
		t.Fatalf("series ends at %s", series[len(series)-1].Date())
	}
	avg := SeriesAverage(series)
	if math.Abs(avg-Figure6Average) > 0.05 {
		t.Fatalf("series average %.2f, want %.2f", avg, Figure6Average)
	}
	for _, p := range series {
		if p.Count < 5000 || p.Count > 9000 {
			t.Fatalf("%s count %d outside the plausible band", p.Date(), p.Count)
		}
	}
}

func TestAuthorityNames(t *testing.T) {
	if len(AuthorityNames) != 9 {
		t.Fatalf("authority count %d, want 9", len(AuthorityNames))
	}
	seen := map[string]bool{}
	for _, n := range AuthorityNames {
		if seen[n] {
			t.Fatalf("duplicate authority name %q", n)
		}
		seen[n] = true
	}
}
