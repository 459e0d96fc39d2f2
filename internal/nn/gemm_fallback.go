//go:build !amd64

package nn

// haveAVX is false on non-amd64 targets: gemmNT always takes the portable
// gemmNTScalar path and applyBiasAct the scalar tanhF32 loop, which are
// bit-identical to the AVX kernels by the determinism contract in gemm.go.
var haveAVX = false

// The kernels are never reached when haveAVX is false; the stubs exist so
// gemm.go and net.go compile on every target.

func gemmKernel4x8(k int, a *float32, lda int, panel *float32, c *float32, ldc int) {
	panic("nn: gemmKernel4x8 called on a target without an assembly kernel")
}

func biasTanh8(row *float32, b *float32, n int, tab *[13][8]float32) {
	panic("nn: biasTanh8 called on a target without an assembly kernel")
}
