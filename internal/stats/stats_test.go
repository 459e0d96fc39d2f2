package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4 (population)", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestMeanVarianceEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestVarianceSingleElement(t *testing.T) {
	// Population variance of a single observation is exactly 0: the one
	// element coincides with the mean, so Eq. 3 sums zero deviations.
	if v := Variance([]float64{42.5}); v != 0 {
		t.Fatalf("Variance(n=1) = %v, want 0", v)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceConstantIsZero(t *testing.T) {
	xs := []float64{3, 3, 3, 3}
	if v := Variance(xs); v != 0 {
		t.Fatalf("variance of constant = %v", v)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		got, ok := Percentile(xs, c.p)
		if !ok || !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v,%v, want %v,true", c.p, got, ok, c.want)
		}
	}
	// Interpolation between order statistics.
	if got, _ := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileEmpty(t *testing.T) {
	// Fault scenarios (total outage, demand drought) legitimately produce
	// empty distributions; the API must report "no data", not panic.
	if v, ok := Percentile(nil, 50); ok || v != 0 {
		t.Fatalf("Percentile(nil) = %v,%v, want 0,false", v, ok)
	}
	if v, ok := Median(nil); ok || v != 0 {
		t.Fatalf("Median(nil) = %v,%v, want 0,false", v, ok)
	}
}

func TestMedian(t *testing.T) {
	m, ok := Median([]float64{5, 1, 9})
	if !ok || m != 5 {
		t.Fatalf("Median = %v,%v", m, ok)
	}
}

func TestGini(t *testing.T) {
	// Perfect equality.
	if g := Gini([]float64{5, 5, 5, 5}); !almostEq(g, 0, 1e-12) {
		t.Errorf("Gini equal = %v, want 0", g)
	}
	// Perfect inequality approaches (n-1)/n.
	g := Gini([]float64{0, 0, 0, 100})
	if !almostEq(g, 0.75, 1e-12) {
		t.Errorf("Gini extreme = %v, want 0.75", g)
	}
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
	// Negative values clamped, not crashing.
	if g := Gini([]float64{-1, 1}); g < 0 || g > 1 {
		t.Errorf("Gini with negatives = %v", g)
	}
}

func TestGiniBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			if math.Abs(x) > 1e50 {
				xs[i] = math.Mod(x, 1e6)
			}
		}
		g := Gini(xs)
		return g >= -1e-9 && g <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.Len() != 4 {
		t.Fatal("Len wrong")
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almostEq(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if q, ok := c.Quantile(0.5); !ok || !almostEq(q, 2.5, 1e-12) {
		t.Errorf("Quantile(0.5) = %v,%v", q, ok)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 {
		t.Fatal("empty CDF At should be 0")
	}
	if q, ok := c.Quantile(0.5); ok || q != 0 {
		t.Fatalf("Quantile of empty CDF = %v,%v, want 0,false", q, ok)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	c := NewCDF([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if h.total != 100 {
		t.Fatal("total wrong")
	}
	for i, c := range h.Counts {
		if c != 10 {
			t.Fatalf("bin %d count = %d, want 10", i, c)
		}
	}
	if f := h.Fraction(0, 5); f != 0.5 {
		t.Fatalf("Fraction = %v", f)
	}
	if f := h.FractionInRange(0, 50); f != 0.5 {
		t.Fatalf("FractionInRange = %v", f)
	}
}

func TestHistogramOutOfRangeClamped(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-100)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[4] != 1 {
		t.Fatalf("boundary bins = %v", h.Counts)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if c := h.BinCenter(0); c != 1 {
		t.Fatalf("BinCenter(0) = %v, want 1", c)
	}
	if c := h.BinCenter(4); c != 9 {
		t.Fatalf("BinCenter(4) = %v, want 9", c)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(10, 0, 5)
}

func TestHourBuckets(t *testing.T) {
	var hb HourBuckets
	hb.Add(3, 10)
	hb.Add(3, 20)
	hb.Add(27, 30) // wraps to 3
	hb.Add(-1, 5)  // wraps to 23
	if m := hb.Mean(3); m != 20 {
		t.Fatalf("Mean(3) = %v, want 20", m)
	}
	if m := hb.Mean(23); m != 5 {
		t.Fatalf("Mean(23) = %v, want 5", m)
	}
	if m := hb.Mean(10); m != 0 {
		t.Fatalf("Mean of empty hour = %v", m)
	}
	means := hb.Means()
	if means[3] != 20 {
		t.Fatal("Means()[3] wrong")
	}
	if hb.Count[3] != 3 {
		t.Fatal("Count wrong")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("Summary = %+v", s)
	}
	if !almostEq(s.Median, 5.5, 1e-12) {
		t.Fatalf("Median = %v", s.Median)
	}
	if !almostEq(s.Mean, 5.5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
	zero := Summarize(nil)
	if zero.N != 0 {
		t.Fatal("empty Summarize should be zero")
	}
}
