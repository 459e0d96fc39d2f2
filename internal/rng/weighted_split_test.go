package rng

import (
	"math"
	"math/rand/v2"
	"testing"
)

// singleScanWeightedChoice is WeightedChoice as one function, the form it
// had before it was split into WeightedTotal and WeightedDraw. It is the
// reference the split must reproduce index for index and draw for draw.
func singleScanWeightedChoice(s *Source, weights []float64) int {
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
	return last
}

// randomWeights draws a weight vector of 1..12 entries mixing ordinary
// positive weights with the edge values WeightedChoice must treat
// specially: zero, negative, NaN, +Inf, -Inf, and finite weights large
// enough for their sum to overflow to +Inf.
func randomWeights(g *Source) []float64 {
	w := make([]float64, 1+g.Intn(12))
	for i := range w {
		switch g.Intn(10) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = -g.Float64()
		case 2:
			w[i] = math.NaN()
		case 3:
			w[i] = math.Inf(1)
		case 4:
			w[i] = math.Inf(-1)
		case 5:
			w[i] = math.MaxFloat64
		default:
			w[i] = g.Float64()
		}
	}
	return w
}

// TestWeightedChoiceSplitMatchesSingleScan checks that WeightedChoice, and
// WeightedTotal then WeightedDraw called apart, pick the single-scan index
// and leave the stream where the single scan leaves it, over random weight
// vectors with zero, negative, NaN and infinite entries.
func TestWeightedChoiceSplitMatchesSingleScan(t *testing.T) {
	g := New(2042)
	for trial := 0; trial < 20000; trial++ {
		w := randomWeights(g)
		seed := g.Int63()
		ref, composed, split := New(seed), New(seed), New(seed)
		want := singleScanWeightedChoice(ref, w)
		if got := composed.WeightedChoice(w); got != want {
			t.Fatalf("trial %d: WeightedChoice(%v) = %d, single scan %d", trial, w, got, want)
		}
		total, ok := WeightedTotal(w)
		if ok != (total > 0) {
			t.Fatalf("trial %d: WeightedTotal(%v) = (%v, %v)", trial, w, total, ok)
		}
		if got := split.WeightedDraw(w, total); got != want {
			t.Fatalf("trial %d: WeightedDraw(%v, %v) = %d, single scan %d", trial, w, total, got, want)
		}
		next := ref.Int63()
		if composed.Int63() != next || split.Int63() != next {
			t.Fatalf("trial %d: stream misaligned after weights %v", trial, w)
		}
	}
}

// seqSource is a rand.Source that returns a fixed sequence of values and
// counts how many were taken.
type seqSource struct {
	vals []uint64
	next int
}

func (s *seqSource) Uint64() uint64 {
	v := s.vals[s.next]
	s.next++
	return v
}

// seqStream returns a Source whose draws come from vals through
// math/rand/v2's own Float64 and IntN, and the sequence it reads.
func seqStream(vals ...uint64) (*Source, *seqSource) {
	seq := &seqSource{vals: vals}
	return &Source{r: rand.New(seq)}, seq
}

// TestWeightedDrawAtMatchesWeightedDraw checks WeightedDrawAt, given the
// first value of a fixed sequence, against WeightedDraw reading that
// sequence through rand.Rand: the same index, and where WeightedDrawAt
// reports that its value did not decide the draw, Intn over the rest of
// the sequence finishes it at the index and position WeightedDraw reaches.
// The first values include 0 and 2^63, which IntN(14) rejects, and the
// rows all-zero, NaN, +Inf and overflowing weights.
func TestWeightedDrawAtMatchesWeightedDraw(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rows := [][]float64{
		make([]float64, 14),
		make([]float64, 8),
		{nan, nan, nan},
		{-1, 0, nan, -inf},
		{0, 0.2, 0, 0.5, 0.3},
		{0.1, inf, 0.3, inf},
		{math.MaxFloat64, math.MaxFloat64, 0},
		{1},
	}
	type drawCase struct {
		w []float64
		u uint64
	}
	var cases []drawCase
	for _, w := range rows {
		for _, u := range []uint64{0, 1, 2, 13, 14, 1 << 63, 1<<63 + 1, math.MaxUint64, 0x9e3779b97f4a7c15} {
			cases = append(cases, drawCase{w, u})
		}
	}
	g := New(7)
	for range 2000 {
		cases = append(cases, drawCase{randomWeights(g), g.Uint64()})
	}
	rest := []uint64{0, 1 << 63, 0x123456789abcdef, 42}
	for _, c := range cases {
		w, u := c.w, c.u
		total, _ := WeightedTotal(w)
		ref, refSeq := seqStream(append([]uint64{u}, rest...)...)
		want := ref.WeightedDraw(w, total)
		got, ok := WeightedDrawAt(w, total, u)
		used := 1
		if !ok {
			if total > 0 {
				t.Fatalf("weights %v total %v u %#x: positive total left undecided", w, total, u)
			}
			cont, contSeq := seqStream(rest...)
			got = cont.Intn(len(w))
			used += contSeq.next
		}
		if got != want || used != refSeq.next {
			t.Fatalf("weights %v total %v u %#x: index %d after %d values (decided %v), WeightedDraw %d after %d",
				w, total, u, got, used, ok, want, refSeq.next)
		}
	}
	if _, ok := WeightedDrawAt(make([]float64, 14), 0, 0); ok {
		t.Fatal("u = 0 decides a uniform draw over 14, want IntN to draw again")
	}
}

// TestUint64IsTheNextDrawsValue checks that Uint64 takes the value the
// stream's next Float64 would convert.
func TestUint64IsTheNextDrawsValue(t *testing.T) {
	a, b := New(11), New(11)
	for range 100 {
		u := a.Uint64()
		if f := b.Float64(); f != float64(u<<11>>11)/(1<<53) {
			t.Fatalf("Float64 %v, converted Uint64 %#x", f, u)
		}
	}
}
