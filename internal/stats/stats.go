// Package stats provides the descriptive statistics used to reproduce the
// paper's figures: empirical CDFs, percentiles, histograms, variance-based
// fairness measures, and hour-of-day bucketing.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (0 for empty input; a
// single element has population variance 0). This matches the paper's
// profit-fairness definition (Eq. 3), which divides by N.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (p in [0, 100]) of xs by linear
// interpolation between order statistics. The boolean reports whether xs had
// any data: empty input returns (0, false) instead of panicking, so fault
// scenarios that drain a distribution (a total station outage, a demand
// drought) degrade to "no data" rather than crash the report path.
func Percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), true
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile, with the same (value, ok) contract as
// Percentile: (0, false) for empty input.
func Median(xs []float64) (float64, bool) { return Percentile(xs, 50) }

// Gini returns the Gini coefficient of xs, an alternative inequality measure
// reported alongside PF in EXPERIMENTS.md. Values must be non-negative;
// negative values are clamped to zero. Returns 0 for degenerate input.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	for i, x := range xs {
		if x < 0 {
			x = 0
		}
		sorted[i] = x
	}
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum/(float64(n)*total) - float64(n+1)/float64(n))
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF over xs.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Histogram is a fixed-width bin histogram over [Min, Max). Values outside
// the range are counted in the boundary bins.
type Histogram struct {
	Min, Max float64
	Counts   []int
	total    int
}

// NewHistogram creates a histogram with bins equal-width bins.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) bins=%d", min, max, bins))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	bin := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.total++
}

// Fraction returns the fraction of observations in bins [lo, hi).
func (h *Histogram) Fraction(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	var c int
	for i := lo; i < hi && i < len(h.Counts); i++ {
		if i >= 0 {
			c += h.Counts[i]
		}
	}
	return float64(c) / float64(h.total)
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// FractionInRange returns the fraction of observations with value in
// [lo, hi), computed from bins whose centers fall in the range.
func (h *Histogram) FractionInRange(lo, hi float64) float64 {
	if h.total == 0 {
		return 0
	}
	var c int
	for i := range h.Counts {
		if center := h.BinCenter(i); center >= lo && center < hi {
			c += h.Counts[i]
		}
	}
	return float64(c) / float64(h.total)
}

// HourBuckets accumulates values into 24 hour-of-day buckets — the x-axis of
// the paper's Figs. 4, 11, and 13.
type HourBuckets struct {
	Sum   [24]float64
	Count [24]int
}

// Add records value v at the given hour (wrapped mod 24).
func (hb *HourBuckets) Add(hour int, v float64) {
	h := ((hour % 24) + 24) % 24
	hb.Sum[h] += v
	hb.Count[h]++
}

// Mean returns the mean of the values recorded at hour (0 if none).
func (hb *HourBuckets) Mean(hour int) float64 {
	h := ((hour % 24) + 24) % 24
	if hb.Count[h] == 0 {
		return 0
	}
	return hb.Sum[h] / float64(hb.Count[h])
}

// Means returns all 24 hourly means.
func (hb *HourBuckets) Means() [24]float64 {
	var out [24]float64
	for h := 0; h < 24; h++ {
		out[h] = hb.Mean(h)
	}
	return out
}

// Summary bundles the five-number summary used when printing distribution
// rows for figures.
type Summary struct {
	N                       int
	Mean, P25, Median, P75  float64
	P10, P90, Min, Max, Std float64
}

// Summarize computes a Summary of xs. Empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		P10:    percentileSorted(s, 10),
		P25:    percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		P75:    percentileSorted(s, 75),
		P90:    percentileSorted(s, 90),
		Min:    s[0],
		Max:    s[len(s)-1],
		Std:    StdDev(s),
	}
}

// String renders the summary as one table row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p25=%.2f median=%.2f p75=%.2f p90=%.2f std=%.2f",
		s.N, s.Mean, s.P25, s.Median, s.P75, s.P90, s.Std)
}
