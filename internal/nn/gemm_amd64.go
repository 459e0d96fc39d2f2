//go:build amd64

package nn

// haveAVX gates the AVX kernels: gemmNT's panel path and applyBiasAct's
// vectorized tanh. It is read from CPUID/XGETBV once at package init — the
// CPU must implement AVX and the OS must save YMM state. Without AVX every
// product takes the portable gemmNTScalar path and every tanh runs through
// tanhF32, which are bit-identical to the kernels by the determinism
// contract in gemm.go.
var haveAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU and OS support AVX (CPUID.1:ECX
// OSXSAVE and AVX, XCR0 XMM and YMM state).
func cpuHasAVX() bool

// haveAVX512 gates the 16-lane tier: gemmNTPanel's 4×16 micro-kernel and
// SoftmaxInto's 8-lane exp. It needs AVX512F, FMA and OS-saved ZMM and
// opmask state (see cpuHasAVX512), and implies haveAVX. Without it the
// panel runs 8 lanes wide and every exp is math.Exp — the same bits.
var haveAVX512 = haveAVX && cpuHasAVX512()

// cpuHasAVX512 reports whether the CPU has AVX512F and FMA and the OS saves
// the AVX-512 register state.
func cpuHasAVX512() bool

// gemmKernel4x8 computes the 4×8 block C[0:4][0:8] = A[0:4][0:k] @ panelᵀ,
// overwriting C. a points at the first of four consecutive A rows (row
// stride lda floats), c at the top-left of the output block (row stride ldc
// floats), and panel at a k-major packed block of eight B rows:
// panel[t*8+l] holds B[l][t], so one 32-byte load per contraction step t
// fetches the eight B values multiplied against each A element.
//
// Determinism: lane l of accumulator row r is the single chain
// sum_t a[r][t]*B[l][t] in ascending t, with VMULPS and VADDPS rounding
// each term exactly like the scalar expression `s += av * bv` —
// bit-identical to gemmNTScalar and the naive reference.
//
//go:noescape
func gemmKernel4x8(k int, a *float32, lda int, panel *float32, c *float32, ldc int)

// gemmKernel4x16 is gemmKernel4x8 sixteen lanes wide: panel[t*16+l] holds
// B[l][t] and the kernel writes the 4×16 block C[0:4][0:16]. Each lane is
// the same ascending-t multiply-then-add chain, so it is bit-identical to
// the 8-lane and scalar kernels.
//
//go:noescape
func gemmKernel4x16(k int, a *float32, lda int, panel *float32, c *float32, ldc int)

// biasTanh8 sets row[c] = tanhF32(row[c] + b[c]) for c in [0, n), eight
// lanes at a time, bit-identical to the scalar loop; n must be a positive
// multiple of 8. tab is tanhTable.
//
//go:noescape
func biasTanh8(row *float32, b *float32, n int, tab *[13][8]float32)

// expKernel8 sets x[i] = math.Exp(x[i]) for i in [0, n), eight float64
// lanes at a time (a short last group under an opmask), bit-identical to
// math.Exp's FMA sequence; n must be at least 1 and every x[i] must lie in
// [expVecMin, 0]. tab is expTable.
//
//go:noescape
func expKernel8(x *float64, n int, tab *[expTableLen]float64)
