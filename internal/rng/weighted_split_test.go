package rng

import (
	"math"
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
