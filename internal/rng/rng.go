// Package rng provides deterministic, splittable random-number streams.
//
// FairMove's simulator, data generator, and learning algorithms each need
// their own reproducible stream so that, for example, changing the number of
// training epochs does not perturb the synthetic demand. SplitStable derives
// a named child stream from a stable hash of the name, so the same
// (seed, name) pair always yields the same stream.
package rng

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"strconv"
)

// Source is a deterministic random stream backed by a PCG generator: 16
// bytes of state, so a simulation can hold one stream per region and per
// station without the stream count showing up in its heap. The generator
// lives inside the Source, so Reseed can restart the stream in place.
type Source struct {
	pcg rand.PCG
	r   *rand.Rand
}

// New returns a Source seeded with seed. The seed is spread over both PCG
// state words by a SplitMix64 finalizer, so nearby seeds start far apart.
func New(seed int64) *Source {
	s := &Source{}
	s.seed(seed)
	s.r = rand.New(&s.pcg)
	return s
}

// seed sets the generator to the state New(seed) starts in.
func (s *Source) seed(seed int64) {
	hi := mix64(uint64(seed))
	s.pcg.Seed(hi, mix64(hi))
}

// mix64 is the SplitMix64 output function: a bijective 64-bit scrambler.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitStable derives a child stream from seed and name only, without
// consuming parent state. Calling it repeatedly with the same name yields the
// same stream every time.
func SplitStable(seed int64, name string) *Source {
	return New(seed ^ int64(fnv1a(fnvOffset, name)))
}

// Reseed restarts s as the stream SplitStable(seed, prefix+strconv.Itoa(i))
// returns, without allocating: the name is hashed from prefix and i's
// decimal digits on the stack. An engine resetting one stream per region
// reuses its Sources this way instead of building new ones.
func (s *Source) Reseed(seed int64, prefix string, i int) {
	var digits [20]byte
	h := fnv1a(fnvOffset, prefix)
	h = fnv1a(h, strconv.AppendInt(digits[:0], int64(i), 10))
	s.seed(seed ^ int64(h))
}

// FNV-1a, 64-bit (the hash/fnv New64a parameters).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds the bytes of b into the FNV-1a hash h.
func fnv1a[B string | []byte](h uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return h
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.IntN(n) }

// Uint64 returns the stream's next raw 64-bit value: the value Float64,
// Intn and WeightedDraw consume first. WeightedDrawAt draws from it.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// Norm returns a normally distributed value with the given mean and standard
// deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
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
//
// It is WeightedTotal followed by WeightedDraw. Callers that want the scan
// off the stream's goroutine (the batched policy decide computes totals on
// worker goroutines) run the two halves apart and get the same index and
// the same stream position.
func (s *Source) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice with no weights")
	}
	total, _ := WeightedTotal(weights)
	return s.WeightedDraw(weights, total)
}

// WeightedTotal is WeightedChoice's first pass: the sum of the positive
// weights, or +Inf as soon as a +Inf weight is seen. ok reports whether the
// total is positive, that is whether WeightedDraw draws proportionally
// (one Float64) rather than uniformly (one Intn). It reads no stream, so it
// is safe to call from any goroutine.
func WeightedTotal(weights []float64) (total float64, ok bool) {
	for _, w := range weights {
		if math.IsInf(w, 1) {
			return w, true
		}
		if w > 0 {
			total += w
		}
	}
	return total, total > 0
}

// WeightedDraw is WeightedChoice's second pass: it draws an index of
// weights given their WeightedTotal. A positive total consumes one stream
// value (one Float64); a total that is not positive draws a uniform index
// with IntN, which consumes one value except in the 2^64 mod n cases out of
// 2^64 where it rejects that value and draws again. It panics on an empty
// slice.
func (s *Source) WeightedDraw(weights []float64, total float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedDraw with no weights")
	}
	if !(total > 0) {
		return s.r.IntN(len(weights))
	}
	return weightedScan(weights, total, s.r.Float64())
}

// WeightedDrawAt is WeightedDraw given the first stream value it would
// consume, u, instead of the stream: it reads no state, so worker
// goroutines can draw from values the stream's owner took in advance
// (Source.Uint64). ok is false only when total is not positive and IntN
// rejects u; the draw then continues as Intn(len(weights)) on the stream
// after u, and the index returned is meaningless. It panics on an empty
// slice.
func WeightedDrawAt(weights []float64, total float64, u uint64) (i int, ok bool) {
	n := uint64(len(weights))
	if n == 0 {
		panic("rng: WeightedDrawAt with no weights")
	}
	if total > 0 {
		// rand.Rand.Float64's conversion of one stream value.
		return weightedScan(weights, total, float64(u<<11>>11)/(1<<53)), true
	}
	// rand.Rand.IntN's first step (the 32-bit form computes the same).
	if n&(n-1) == 0 {
		return int(u & (n - 1)), true
	}
	hi, lo := bits.Mul64(u, n)
	return int(hi), lo >= n || lo >= -n%n
}

// weightedScan is WeightedDraw's proportional pick at uniform value f in
// [0, 1), given weights' positive total.
func weightedScan(weights []float64, total, f float64) int {
	x := f * total
	last := 0
	if math.IsInf(total, 1) {
		// An +Inf weight, or finite weights overflowing: the draw is spent
		// but decides nothing. The first +Inf weight wins; without one, the
		// last positive weight does (where the scan below lands, since x is
		// +Inf or NaN and never drops below zero).
		for i, w := range weights {
			if math.IsInf(w, 1) {
				return i
			}
			if w > 0 {
				last = i
			}
		}
		return last
	}
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
// The index *sequence* differs from WeightedChoice over the same weights
// even though the marginal distribution is identical, so
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
