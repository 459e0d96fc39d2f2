package nn

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestExpKernelMatchesMathExp checks expKernel8 bit for bit against
// math.Exp on 10^7 random lanes in [expVecMin, 0] — half uniform, half
// log-uniform in magnitude so small arguments are as well covered as large
// ones — plus the range's edges (±0, denormals, expVecMin and its
// neighbours), and checks that expInto refuses every argument outside the
// range (NaN, -Inf, below expVecMin, positive) and leaves it for math.Exp.
//
// The kernel replays math.Exp's amd64 FMA sequence; if a Go release
// changes that sequence this test fails, and the kernel must follow before
// any digest can be trusted.
func TestExpKernelMatchesMathExp(t *testing.T) {
	if !hostAVX512 {
		t.Skip("no AVX-512 on this CPU or target: there is no exp kernel")
	}
	check := func(x []float64) {
		t.Helper()
		got := append([]float64(nil), x...)
		if !expInto(got) {
			t.Fatalf("expInto refused in-range arguments %v", x)
		}
		for i, v := range x {
			if want := math.Exp(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("exp kernel(%v) = %v (%#x), math.Exp = %v (%#x) under %s: "+
					"the kernel no longer replays this toolchain's math.Exp",
					v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want), runtime.Version())
			}
		}
	}

	check([]float64{
		0, math.Copysign(0, -1), -math.SmallestNonzeroFloat64, -2.2250738585072014e-308,
		-1e-300, -1e-17, -1e-9, -0.5, -math.Ln2 / 2, -1, -math.Ln2, -5 * math.Ln2 / 2,
		expVecMin, math.Nextafter(expVecMin, 0), math.Nextafter(math.Nextafter(expVecMin, 0), 0),
	})

	const lanes = 10_000_000
	src := rng.New(1042)
	buf := make([]float64, 4096)
	for done := 0; done < lanes; done += len(buf) {
		for i := range buf {
			if i%2 == 0 {
				buf[i] = src.Uniform(expVecMin, 0)
			} else {
				buf[i] = -math.Exp(src.Uniform(math.Log(1e-20), math.Log(-expVecMin)))
			}
		}
		check(buf)
	}

	outside := []float64{
		math.NaN(), math.Inf(-1), math.Inf(1), math.Nextafter(expVecMin, math.Inf(-1)),
		-708.4, -745.2, -1000, math.SmallestNonzeroFloat64, 1e-300, 1,
	}
	for _, v := range outside {
		x := []float64{-1, -2, v, -3}
		if expInto(x) {
			t.Fatalf("expInto accepted %v, which must fall back to math.Exp", v)
		}
		if x[0] != -1 || x[1] != -2 || x[3] != -3 || math.Float64bits(x[2]) != math.Float64bits(v) {
			t.Fatalf("expInto changed its arguments on a refused row: %v", x)
		}
	}
}

// TestSoftmaxIntoMatchesScalarTier compares SoftmaxInto at every tier with
// the scalar tier, bit for bit, on random masked rows of several widths —
// including rows the exp kernel must refuse (a NaN or ±Inf logit, a
// spread past expVecMin) and fully masked rows.
func TestSoftmaxIntoMatchesScalarTier(t *testing.T) {
	src := rng.New(77)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -800, 900}
	type row struct {
		logits []float32
		mask   []bool
	}
	var rows []row
	for trial := 0; trial < 2000; trial++ {
		w := []int{1, 2, 7, 8, 9, 14, 16, 17, 30}[trial%9]
		r := row{logits: make([]float32, w)}
		for i := range r.logits {
			r.logits[i] = float32(src.Uniform(-30, 30))
			if trial%5 == 0 && src.Intn(w) == 0 {
				r.logits[i] = specials[src.Intn(len(specials))]
			}
		}
		if trial%3 != 0 {
			r.mask = make([]bool, w)
			for i := range r.mask {
				r.mask[i] = trial%17 != 0 && src.Intn(3) != 0
			}
		}
		rows = append(rows, r)
	}
	run := func() [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = SoftmaxInto(r.logits, r.mask, make([]float64, len(r.logits)))
		}
		return out
	}
	var want [][]float64
	withKernelTier(scalarTier, func() { want = run() })
	for _, tier := range hostKernelTiers() {
		var got [][]float64
		withKernelTier(tier, func() { got = run() })
		for i := range want {
			for j := range want[i] {
				g, w := got[i][j], want[i][j]
				if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
					t.Fatalf("%s row %d (logits %v, mask %v): p[%d] = %v, scalar %v",
						tier.name, i, rows[i].logits, rows[i].mask, j, g, w)
				}
			}
		}
	}
}
