//go:build !amd64

package nn

// haveAVX is false on non-amd64 targets: gemmNT always takes the portable
// gemmNTScalar path and applyBiasAct the scalar tanhF32 loop, which are
// bit-identical to the AVX kernels by the determinism contract in gemm.go.
var haveAVX = false

// haveAVX512 is false on non-amd64 targets: the GEMM panel and the softmax
// exp kernel are never reached.
var haveAVX512 = false

// The kernels are never reached when haveAVX is false; the stubs exist so
// gemm.go and net.go compile on every target.

func gemmKernel4x8(k int, a *float32, lda int, panel *float32, c *float32, ldc int) {
	panic("nn: gemmKernel4x8 called on a target without an assembly kernel")
}

func gemmKernel4x16(k int, a *float32, lda int, panel *float32, c *float32, ldc int) {
	panic("nn: gemmKernel4x16 called on a target without an assembly kernel")
}

func expKernel8(x *float64, n int, tab *[expTableLen]float64) {
	panic("nn: expKernel8 called on a target without an assembly kernel")
}

func biasTanh8(row *float32, b *float32, n int, tab *[13][8]float32) {
	panic("nn: biasTanh8 called on a target without an assembly kernel")
}
