package nn

// tanhF32's constants, hoisted to package level so the scalar function and
// the AVX epilogue's table (tanhTable) round them to float32 identically.
// Beyond ±tanhClamp the float32 result is exactly ±1; clamping also keeps
// the polynomials in their fitted range.
const (
	tanhClamp = 7.90531110763549805

	tanhA1  = 4.89352455891786e-03
	tanhA3  = 6.37261928875436e-04
	tanhA5  = 1.48572235717979e-05
	tanhA7  = 5.12229709037114e-08
	tanhA9  = -8.60467152213735e-11
	tanhA11 = 2.00018790482477e-13
	tanhA13 = -2.76076847742355e-16

	tanhB0 = 4.89352518554385e-03
	tanhB2 = 2.26843463243900e-03
	tanhB4 = 1.18534705686654e-04
	tanhB6 = 1.19825839466702e-06
)

// tanhF32 is a float32 rational approximation of tanh, accurate to ~1 ulp of
// float32 over the whole line (the classic 13/6-degree ratio of odd/even
// polynomials used by vectorized math libraries). The float64 math.Tanh it
// replaces cost two conversions plus a float64 exp per element and dominated
// the training-step profile (~37% of CPU); this version is a handful of
// float32 multiply-adds.
//
// Determinism: pure float32 arithmetic in a fixed order — the same inputs
// always produce the same bits on every platform, exactly like the GEMM
// kernels. It does NOT produce the same bits as float32(math.Tanh(float64)),
// which is why switching to it was a golden-fixture bump. biasTanh8 runs
// this exact operation sequence eight lanes at a time.
func tanhF32(x float32) float32 {
	if x > tanhClamp {
		x = tanhClamp
	} else if x < -tanhClamp {
		x = -tanhClamp
	}
	x2 := x * x
	p := float32(tanhA13)
	p = p*x2 + tanhA11
	p = p*x2 + tanhA9
	p = p*x2 + tanhA7
	p = p*x2 + tanhA5
	p = p*x2 + tanhA3
	p = p*x2 + tanhA1
	p *= x
	q := float32(tanhB6)
	q = q*x2 + tanhB4
	q = q*x2 + tanhB2
	q = q*x2 + tanhB0
	return p / q
}

// tanhTable is biasTanh8's constant table: tanhF32's constants in the order
// the kernel reads them, each broadcast to eight lanes.
var tanhTable = func() (t [13][8]float32) {
	for i, v := range [13]float32{
		tanhClamp, -tanhClamp,
		tanhA13, tanhA11, tanhA9, tanhA7, tanhA5, tanhA3, tanhA1,
		tanhB6, tanhB4, tanhB2, tanhB0,
	} {
		for l := range t[i] {
			t[i][l] = v
		}
	}
	return t
}()
