package dircache

import (
	"math"
	"math/rand"
	"sort"
)

// poisson samples a Poisson(lambda) count. Small rates use Knuth's product
// method, which draws lambda+1 uniforms on average, so fewer than 31 below
// the switch at lambda = 30; large rates the normal approximation, one
// normal draw. A fleet tick's draws are so bounded whatever the population,
// but the exact branches are not O(1).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		limit := math.Exp(-lambda)
		k := 0
		p := 1.0
		for p > limit {
			k++
			p *= rng.Float64()
		}
		return k - 1
	}
	n := int(math.Round(lambda + float64(math.Sqrt(lambda)*rng.NormFloat64())))
	if n < 0 {
		n = 0
	}
	return n
}

// binomial samples a Binomial(n, p) count, switching to the normal
// approximation (one normal draw) when the variance n·p·(1−p) exceeds 25,
// large enough for it to be accurate. Below that it draws one uniform per
// client: up to 156 draws at diffFraction 0.8, where the switch is at
// n > 156.
func binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if v := float64(n) * p * (1 - p); v > 25 {
		k := int(math.Round(float64(float64(n)*p) + float64(math.Sqrt(v)*rng.NormFloat64())))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	k := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			k++
		}
	}
	return k
}

// drawScratch holds the reusable buffers of the per-tick draw helpers. The
// fleet tier runs one tick per fleet every 10 seconds over the whole fetch
// window; without scratch reuse every tick allocates per cache, which at
// 10⁵–10⁷ aggregated clients is the distribution tier's dominant garbage.
type drawScratch struct {
	clamped []int
	fracs   []float64
	order   []int
	splitA  []int
	splitB  []int
}

//detlint:hotpath
func intScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		//detlint:hotpath ok(amortized scratch growth: make runs only while the high-water mark rises)
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

//detlint:hotpath
func floatScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		//detlint:hotpath ok(amortized scratch growth: make runs only while the high-water mark rises)
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// clampDraws scales a tick's per-cache draws down to the remaining client
// budget when they exceed it, allocating the budget in proportion to the
// draws (largest-remainder apportionment; remainder ties go to the lower
// index, so the result is deterministic). Unlike a sequential clamp, no
// cache is favored by its position: a first-come truncation hands the
// low-index caches their full draw and systematically starves the rest.
// No cache is allocated more than it drew. The result (which may alias the
// scratch) is valid until the scratch's next clampDraws call.
//
//detlint:hotpath
func clampDraws(s *drawScratch, draws []int, budget int) []int {
	total := 0
	for _, d := range draws {
		total += d
	}
	if total <= budget {
		return draws
	}
	out := intScratch(&s.clamped, len(draws))
	fracs := floatScratch(&s.fracs, len(draws))
	order := intScratch(&s.order, len(draws))
	assigned := 0
	for i, d := range draws {
		exact := float64(d) * float64(budget) / float64(total)
		out[i] = int(exact)
		assigned += out[i]
		fracs[i] = exact - float64(out[i])
		order[i] = i
	}
	//detlint:hotpath ok(sort closure captures scratch slices that outlive the call anyway; it runs only on over-budget ticks)
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for j := 0; assigned < budget; j++ {
		out[order[j]]++
		assigned++
	}
	return out
}

// splitCounts distributes n items over len(weights) bins as an exact
// multinomial draw, via sequential conditional binomials, writing into the
// caller's scratch buffer (grown in place as needed).
//
//detlint:hotpath
func splitCounts(buf *[]int, rng *rand.Rand, n int, weights []float64) []int {
	out := intScratch(buf, len(weights))
	for i := range out {
		out[i] = 0
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	remaining := n
	for i, w := range weights {
		if remaining == 0 {
			break
		}
		if i == len(weights)-1 || total <= 0 {
			out[i] = remaining
			remaining = 0
			break
		}
		k := binomial(rng, remaining, w/total)
		out[i] = k
		remaining -= k
		total -= w
	}
	return out
}
