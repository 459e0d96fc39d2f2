//go:build amd64

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0 must
// show the OS saving both XMM (bit 1) and YMM (bit 2) state on context
// switch; only then may the YMM kernels below run.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func gemmKernel4x8(k int, a *float32, lda int, panel *float32, c *float32, ldc int)
//
// 4×8 AVX micro-kernel for gemmNTPanel. Y0–Y3 hold the four C rows of the
// output block; per contraction step t one VMOVUPS fetches the eight packed
// B values (panel is k-major) and each A element is broadcast
// (VBROADCASTSS), multiplied (VMULPS), then accumulated (VADDPS) — the same
// round-to-nearest multiply-then-add as the scalar kernel, lane by lane, in
// strictly ascending t. No FMA: a fused multiply-add rounds once and would
// break bit-identity with the scalar path.
//
// The dispatcher guarantees k ≥ 1 and that haveAVX is set.
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-48
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	LEAQ (SI)(R8*4), R10  // a row 1
	LEAQ (R10)(R8*4), R11 // a row 2
	LEAQ (R11)(R8*4), R12 // a row 3
	MOVQ panel+24(FP), DX
	MOVQ k+0(FP), CX

	VXORPS Y0, Y0, Y0 // C row 0 accumulators
	VXORPS Y1, Y1, Y1 // C row 1
	VXORPS Y2, Y2, Y2 // C row 2
	VXORPS Y3, Y3, Y3 // C row 3
	XORQ   BX, BX     // byte offset into the A rows

loop:
	VMOVUPS (DX), Y4 // B[0..7][t]

	VBROADCASTSS (SI)(BX*1), Y5 // a[0][t]
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0

	VBROADCASTSS (R10)(BX*1), Y6 // a[1][t]
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1

	VBROADCASTSS (R11)(BX*1), Y7 // a[2][t]
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2

	VBROADCASTSS (R12)(BX*1), Y8 // a[3][t]
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

	ADDQ $32, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  loop

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), R9
	VMOVUPS Y0, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Y1, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Y2, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func biasTanh8(row *float32, b *float32, n int, tab *[13][8]float32)
//
// row[c] = tanhF32(row[c] + b[c]) for c in [0, n), eight lanes at a time;
// n is a positive multiple of 8. tab is tanhTable (tanh.go): tanhF32's
// float32 constants in the order below, each broadcast to eight lanes (32
// bytes per entry). Every lane runs tanhF32's exact operation sequence:
// clamp, the same Horner order for both polynomials, one VDIVPS — each a
// separately rounded float32 op, so the lanes match the scalar function bit
// for bit.
//
// Clamp operand order: VMINPS/VMAXPS return their second source (the first
// Go operand) when either input is NaN or both are zeros, so x goes first —
// NaN passes through unchanged and ±0 keeps its sign, exactly like the
// scalar `if x > clamp` / `if x < -clamp` clamp.
TEXT ·biasTanh8(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), DX
	SHRQ $3, CX

	VMOVUPS 0(DX), Y8  // clamp
	VMOVUPS 32(DX), Y9 // -clamp

tloop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0 // x = row + b
	VMINPS  Y0, Y8, Y0   // x > clamp  → clamp
	VMAXPS  Y0, Y9, Y0   // x < -clamp → -clamp
	VMULPS  Y0, Y0, Y1   // x2

	VMULPS 64(DX), Y1, Y2  // p = a13*x2
	VADDPS 96(DX), Y2, Y2  //   + a11
	VMULPS Y1, Y2, Y2
	VADDPS 128(DX), Y2, Y2 //   + a9
	VMULPS Y1, Y2, Y2
	VADDPS 160(DX), Y2, Y2 //   + a7
	VMULPS Y1, Y2, Y2
	VADDPS 192(DX), Y2, Y2 //   + a5
	VMULPS Y1, Y2, Y2
	VADDPS 224(DX), Y2, Y2 //   + a3
	VMULPS Y1, Y2, Y2
	VADDPS 256(DX), Y2, Y2 //   + a1
	VMULPS Y0, Y2, Y2      // p *= x

	VMULPS 288(DX), Y1, Y3 // q = b6*x2
	VADDPS 320(DX), Y3, Y3 //   + b4
	VMULPS Y1, Y3, Y3
	VADDPS 352(DX), Y3, Y3 //   + b2
	VMULPS Y1, Y3, Y3
	VADDPS 384(DX), Y3, Y3 //   + b0

	VDIVPS  Y3, Y2, Y2 // p / q
	VMOVUPS Y2, (DI)

	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  tloop

	VZEROUPPER
	RET
