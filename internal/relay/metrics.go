package relay

import (
	"fmt"
	"math"
	"math/rand"
)

// MetricPoint is one month of the relay-count series (paper Figure 6).
type MetricPoint struct {
	Year  int
	Month int
	Count int
}

// Date renders the point as "2023-01".
func (p MetricPoint) Date() string { return fmt.Sprintf("%04d-%02d", p.Year, p.Month) }

// Figure6Average is the average relay count the paper reports for
// September 2022 – October 2024 (Tor Metrics).
const Figure6Average = 7141.79

// MetricsSeries synthesizes the monthly relay-count series of Figure 6:
// 26 months from 2022-09 through 2024-10, with seasonal structure and a
// dip-and-recover shape, normalized so the average matches the paper's
// 7141.79 to within a hundredth.
//
// Substitution note: the live series comes from Tor Metrics,
// which is unavailable offline; only the scale and the average feed the
// other experiments.
func MetricsSeries() []MetricPoint {
	const months = 26
	rng := rand.New(rand.NewSource(0x464947) /* "FIG" */)
	raw := make([]float64, months)
	for i := range raw {
		t := float64(i)
		// Trend: start high (~8k), dip toward the middle (~6k), recover.
		trend := 7000 + float64(900*math.Cos(t/float64(months-1)*2.2*math.Pi))
		season := float64(220 * math.Sin(t/3.1))
		noise := float64(rng.NormFloat64() * 130)
		raw[i] = trend + season + noise
	}
	var sum float64
	for _, v := range raw {
		sum += v
	}
	scale := Figure6Average * months / sum
	out := make([]MetricPoint, months)
	total := 0
	year, month := 2022, 9
	for i := range out {
		c := int(math.Round(raw[i] * scale))
		out[i] = MetricPoint{Year: year, Month: month, Count: c}
		total += c
		month++
		if month > 12 {
			month = 1
			year++
		}
	}
	// Pin the sum so the average matches the paper to <0.02 relays.
	want := int(math.Round(Figure6Average * months))
	out[months-1].Count += want - total
	return out
}

// SeriesAverage returns the mean relay count of a series.
func SeriesAverage(series []MetricPoint) float64 {
	if len(series) == 0 {
		return 0
	}
	var sum float64
	for _, p := range series {
		sum += float64(p.Count)
	}
	return sum / float64(len(series))
}
