package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestTanhF32Accuracy sweeps the rational approximation against float64
// math.Tanh. The bound is a few float32 ulps of the true value (|tanh| ≤ 1,
// so 1e-6 absolute ≈ 8 ulps near saturation — the approximation is
// typically within 1–2).
func TestTanhF32Accuracy(t *testing.T) {
	maxErr := 0.0
	for x := -12.0; x <= 12.0; x += 1.0 / 512 {
		got := float64(tanhF32(float32(x)))
		want := math.Tanh(x)
		if err := math.Abs(got - want); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 1e-6 {
		t.Fatalf("max |tanhF32 - tanh| = %.3g, want <= 1e-6", maxErr)
	}
	t.Logf("max abs error over [-12,12]: %.3g", maxErr)
}

// TestTanhF32Properties checks exact oddness (the numerator is odd and the
// denominator even in x, so symmetry holds bit-for-bit), the zero fixed
// point, and saturation at large |x|.
func TestTanhF32Properties(t *testing.T) {
	if tanhF32(0) != 0 {
		t.Fatalf("tanhF32(0) = %v, want 0", tanhF32(0))
	}
	for _, x := range []float32{1e-4, 0.5, 1, 2.5, 7, 8, 100} {
		if tanhF32(-x) != -tanhF32(x) {
			t.Fatalf("oddness broken at x=%v: %v vs %v", x, tanhF32(-x), -tanhF32(x))
		}
	}
	if y := tanhF32(50); y < 0.999999 || y > 1 {
		t.Fatalf("tanhF32(50) = %v, want saturated in (0.999999, 1]", y)
	}
	// Derivative-from-output stays in [0,1] at saturation (no 1−y² underflow
	// to negative values).
	if d := Tanh.derivFromOut(tanhF32(50)); d < 0 {
		t.Fatalf("derivFromOut at saturation went negative: %v", d)
	}
}

// biasTanhBoth runs the Tanh epilogue over row+b twice — once as dispatched
// (biasTanh8 on the 8-aligned prefix when AVX is present) and once through
// scalar tanhF32 only — and returns both results.
func biasTanhBoth(row, b []float32) (vec, scalar []float32) {
	vec = append([]float32(nil), row...)
	applyBiasAct(vec, b, Tanh)
	scalar = make([]float32, len(row))
	for c := range row {
		scalar[c] = tanhF32(row[c] + b[c])
	}
	return vec, scalar
}

func requireSameBits(t *testing.T, what string, in, vec, scalar []float32) {
	t.Helper()
	for c := range scalar {
		if math.Float32bits(vec[c]) != math.Float32bits(scalar[c]) {
			t.Fatalf("%s: input %#08x (%v): epilogue %#08x, tanhF32 %#08x (must be bit-identical)",
				what, math.Float32bits(in[c]), in[c], math.Float32bits(vec[c]), math.Float32bits(scalar[c]))
		}
	}
}

// TestBiasTanhMatchesScalar pins the vectorized tanh epilogue to tanhF32 bit
// for bit, NaN payloads included: special values (±0, ±Inf, quiet and
// signalling NaNs with payloads, denormals, the clamp and its ±1-ulp
// neighbours), a strided sweep of all 2³² float32 bit patterns, and random
// rows with real biases at every length 1..40 (so every 8-lane prefix and
// scalar tail split). The sweep adds a -0 bias, which leaves every input —
// -0 included — unchanged. Without AVX both sides are the scalar loop.
func TestBiasTanhMatchesScalar(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	clamp := float32(tanhClamp)
	var special []float32
	for _, bits := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc00001, 0xffd23456, // quiet NaNs
		0x7f800001, 0xff812345, 0x7fbfffff, // signalling NaNs
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // denormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // ±min normal, ±max
	} {
		special = append(special, math.Float32frombits(bits))
	}
	for _, c := range []float32{clamp, -clamp} {
		special = append(special, c, math.Nextafter32(c, 0), math.Nextafter32(c, 2*c))
	}
	zeros := make([]float32, len(special))
	for i := range zeros {
		zeros[i] = negZero
	}
	vec, scalar := biasTanhBoth(special, zeros)
	requireSameBits(t, "special", special, vec, scalar)

	// Strided bit-pattern sweep; the odd stride walks every low-bit pattern.
	stride := uint64(331)
	if testing.Short() {
		stride = 4099
	}
	const chunk = 4096
	row := make([]float32, 0, chunk)
	b := make([]float32, chunk)
	for i := range b {
		b[i] = negZero
	}
	for bits := uint64(0); bits < 1<<32; bits += stride {
		row = append(row, math.Float32frombits(uint32(bits)))
		if len(row) == chunk || bits+stride >= 1<<32 {
			vec, scalar := biasTanhBoth(row, b[:len(row)])
			requireSameBits(t, "sweep", row, vec, scalar)
			row = row[:0]
		}
	}

	src := rng.New(71)
	for n := 1; n <= 40; n++ {
		row, b := make([]float32, n), make([]float32, n)
		for i := range row {
			row[i] = float32(src.Uniform(-10, 10))
			b[i] = float32(src.Uniform(-1, 1))
		}
		vec, scalar := biasTanhBoth(row, b)
		requireSameBits(t, "random row", row, vec, scalar)
	}
}
