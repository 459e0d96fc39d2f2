// Package rng provides deterministic, splittable random-number streams.
//
// FairMove's simulator, data generator, and learning algorithms each need
// their own reproducible stream so that, for example, changing the number of
// training epochs does not perturb the synthetic demand. A Source is split
// into named child streams via a stable hash of the name, so the same
// (seed, name) pair always yields the same stream.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Source is a deterministic random stream backed by a PCG generator: 16
// bytes of state, so a simulation can hold one stream per region and per
// station without the stream count showing up in its heap.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed. The seed is spread over both PCG
// state words by a SplitMix64 finalizer, so nearby seeds start far apart.
func New(seed int64) *Source {
	hi := mix64(uint64(seed))
	return &Source{r: rand.New(rand.NewPCG(hi, mix64(hi)))}
}

// mix64 is the SplitMix64 output function: a bijective 64-bit scrambler.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream identified by name. Streams with
// distinct names are statistically independent; the same name always yields
// the same stream.
func (s *Source) Split(name string) *Source {
	// Note: Split consumes no state from the parent; it derives purely from
	// the parent's seed-equivalent state via one draw on a cloned hash.
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	child := int64(h.Sum64()) ^ s.r.Int64()
	return New(child)
}

// SplitStable derives a child stream from seed and name only, without
// consuming parent state. Calling it repeatedly with the same name yields the
// same stream every time.
func SplitStable(seed int64, name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(seed ^ int64(h.Sum64()))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.IntN(n) }

// Int63 returns a non-negative 63-bit value.
func (s *Source) Int63() int64 { return s.r.Int64() }

// Norm returns a normally distributed value with the given mean and standard
// deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp rate must be positive")
	}
	return s.r.ExpFloat64() / rate
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		v := s.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has the given mu and sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// WeightedChoice returns an index in [0, len(weights)) drawn proportionally
// to weights. Negative and NaN weights are treated as zero; if no weight is
// positive it falls back to a uniform index (consuming one Intn draw instead
// of the usual one Float64). A +Inf weight dominates every finite one: the
// first such index is returned deterministically, still consuming the one
// uniform draw so interleaved callers stay stream-aligned. It panics on an
// empty slice.
func (s *Source) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice with no weights")
	}
	var total float64
	for i, w := range weights {
		if math.IsInf(w, 1) {
			s.r.Float64()
			return i
		}
		if w > 0 {
			total += w
		}
	}
	if !(total > 0) {
		return s.r.IntN(len(weights))
	}
	x := s.r.Float64() * total
	last := 0
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
		last = i
	}
	// Accumulated rounding can leave x at a hair above zero after the final
	// positive weight; land on that weight, never on a trailing zero entry.
	return last
}

// CumWeights precomputes the prefix sums of weights (negatives treated as
// zero) for WeightedChoiceCum. The returned total is the sum of the positive
// weights.
func CumWeights(weights []float64) (cum []float64, total float64) {
	cum = make([]float64, len(weights))
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	return cum, total
}

// WeightedChoiceCum is WeightedChoice over a precomputed prefix-sum table:
// O(log n) instead of O(n) for a draw from a fixed distribution. It consumes
// exactly one uniform draw, the same as WeightedChoice over the underlying
// weights, so the two keep the stream aligned — but the linear scan
// accumulates rounding by repeated subtraction while the table rounds by
// prefix addition, so on rare boundary values the chosen *index* differs.
// Callers pinned to byte-identical historical traces must keep the linear
// form. It panics on an empty table.
func (s *Source) WeightedChoiceCum(cum []float64, total float64) int {
	if len(cum) == 0 {
		panic("rng: WeightedChoiceCum with no weights")
	}
	if !(total > 0) { // covers total <= 0 and a NaN total alike
		return s.r.IntN(len(cum))
	}
	x := s.r.Float64() * total
	if !(x < cum[len(cum)-1]) {
		// A total exceeding the table's own sum (caller mismatch, or an
		// overflowed/Inf table) can push the draw past the last prefix; fall
		// to the last index whose weight is positive rather than blindly to
		// the final (possibly zero-weight) entry.
		return lastRisingCum(cum)
	}
	// Smallest index with cum[i] > x: the strict inequality mirrors the
	// linear scan's `x - w < 0` rule, and flat spots (zero-weight entries)
	// can never satisfy it, so the drawn index always has positive weight.
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lastRisingCum returns the index of the last strict rise in a prefix-sum
// table — the last entry with positive weight — or 0 when the table never
// rises.
func lastRisingCum(cum []float64) int {
	for i := len(cum) - 1; i > 0; i-- {
		if cum[i] > cum[i-1] {
			return i
		}
	}
	return 0
}

// Alias is a Walker alias table: an O(1)-per-draw sampler for a fixed
// discrete distribution. Entry i either keeps its own index (with
// probability prob[i]) or defers to alias[i].
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds the alias table for weights (negatives and NaNs treated
// as zero; the first +Inf weight, if any, dominates and is drawn with
// certainty). Building is O(n); every subsequent draw costs one uniform and
// two array reads. A distribution with no positive weight yields a uniform
// table.
func NewAlias(weights []float64) Alias {
	n := len(weights)
	a := Alias{prob: make([]float64, n), alias: make([]int32, n)}
	var total float64
	for i, w := range weights {
		if math.IsInf(w, 1) {
			// Degenerate certainty: every cell defers to the infinite entry.
			for j := range a.prob {
				a.alias[j] = int32(i)
			}
			a.prob[i] = 1
			return a
		}
		if w > 0 {
			total += w
		}
	}
	if n == 0 {
		return a
	}
	if !(total > 0) {
		for i := range a.prob {
			a.prob[i] = 1
			a.alias[i] = int32(i)
		}
		return a
	}
	// Split indices into under- and over-full relative to the uniform share,
	// then pair each under-full cell with an over-full donor.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		if !(w > 0) {
			w = 0 // negatives and NaNs carry no mass
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range append(small, large...) {
		a.prob[i] = 1
		a.alias[i] = int32(i)
	}
	return a
}

// AliasChoice draws an index from the table using exactly one uniform draw.
// The index *sequence* differs from WeightedChoice/WeightedChoiceCum over
// the same weights even though the marginal distribution is identical, so
// callers pinned to historical traces must not switch samplers. It panics
// on an empty table.
func (s *Source) AliasChoice(a Alias) int {
	n := len(a.prob)
	if n == 0 {
		panic("rng: AliasChoice with no weights")
	}
	u := s.r.Float64() * float64(n)
	i := int(u)
	if i >= n { // u == n on the open-interval boundary is impossible, but be safe
		i = n - 1
	}
	if u-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }
