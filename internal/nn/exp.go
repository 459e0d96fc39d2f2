package nn

// expTableLen is the length of expTable.
const expTableLen = 13

// expTable is expKernel8's constant table, one float64 per constant (the
// kernel broadcasts each to eight lanes as it reads it). The values are
// those of math.Exp's amd64 assembly (exp_amd64.s), in the order the
// kernel reads them; the assembler and the Go compiler both round the
// decimal literals to the nearest float64, so they are the same bits.
var expTable = [expTableLen]float64{
	1.4426950408889634073599246810018920,                  // LOG2E
	0.69314718055966295651160180568695068359375,           // LN2U, upper half of ln 2
	0.28235290563031577122588448175013436025525412068e-12, // LN2L, lower half of ln 2
	0.0625,                   // argument reduction, an immediate there
	0.5,                      // exprodata+0
	1.0,                      // exprodata+8
	2.0,                      // exprodata+16
	1.6666666666666666667e-1, // exprodata+24
	4.1666666666666666667e-2, // exprodata+32
	8.3333333333333333333e-3, // exprodata+40
	1.3888888888888888889e-3, // exprodata+48
	1.9841269841269841270e-4, // exprodata+56
	2.4801587301587301587e-5, // exprodata+64
}

// expVecMin is the lowest argument expKernel8 accepts. Down to here the
// result's binary exponent n + 0x3FF stays ≥ 13, so archExp never takes
// its denormal branch; its other special cases (NaN, ±Inf, overflow) lie
// outside [expVecMin, 0] too.
const expVecMin = -700

// expInto sets x[i] = math.Exp(x[i]) through expKernel8 when every x[i]
// lies in [expVecMin, 0], and reports whether it did; otherwise x is left
// unchanged and the caller runs math.Exp.
func expInto(x []float64) bool {
	for _, v := range x {
		if !(v >= expVecMin && v <= 0) { // NaN fails both
			return false
		}
	}
	if len(x) > 0 {
		expKernel8(&x[0], len(x), &expTable)
	}
	return true
}
