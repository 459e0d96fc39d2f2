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

// func cpuHasAVX512() bool
//
// The 16-lane GEMM panel and the 8-lane exp need AVX512F (CPUID.7.0:EBX
// bit 16, which requires a maximum basic leaf of at least 7), the
// CPUID.1:ECX bits FMA (12), OSXSAVE (27) and AVX (28), and an XCR0 that
// shows the OS saving XMM, YMM, opmask, upper-ZMM and high-ZMM state (bits
// 1, 2, 5, 6 and 7: 0xE6). FMA is part of the gate because math.Exp takes
// its FMA sequence exactly when the CPU has AVX and FMA, and expKernel8
// replays that sequence.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   noavx512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  noavx512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  noavx512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  noavx512
	MOVB $1, ret+0(FP)
	RET

noavx512:
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

// func gemmKernel4x16(k int, a *float32, lda int, panel *float32, c *float32, ldc int)
//
// gemmKernel4x8 at sixteen lanes: Z0–Z3 hold the four C rows, each step
// loads sixteen packed B values (the panel is k-major at 16 floats per
// step) and broadcasts, multiplies (VMULPS) and accumulates (VADDPS) each
// A element. Per lane this is the same multiply-then-add chain in
// ascending t as the 8-lane and scalar kernels; no FMA.
//
// Every instruction is AVX512F (VPXORD zeroes the accumulators: VXORPS on
// ZMM registers would need AVX512DQ). The dispatcher guarantees k ≥ 1 and
// that haveAVX512 is set.
TEXT ·gemmKernel4x16(SB), NOSPLIT, $0-48
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	LEAQ (SI)(R8*4), R10  // a row 1
	LEAQ (R10)(R8*4), R11 // a row 2
	LEAQ (R11)(R8*4), R12 // a row 3
	MOVQ panel+24(FP), DX
	MOVQ k+0(FP), CX

	VPXORD Z0, Z0, Z0 // C row 0 accumulators
	VPXORD Z1, Z1, Z1 // C row 1
	VPXORD Z2, Z2, Z2 // C row 2
	VPXORD Z3, Z3, Z3 // C row 3
	XORQ   BX, BX     // byte offset into the A rows

loop16:
	VMOVUPS (DX), Z4 // B[0..15][t]

	VBROADCASTSS (SI)(BX*1), Z5 // a[0][t]
	VMULPS       Z4, Z5, Z5
	VADDPS       Z5, Z0, Z0

	VBROADCASTSS (R10)(BX*1), Z6 // a[1][t]
	VMULPS       Z4, Z6, Z6
	VADDPS       Z6, Z1, Z1

	VBROADCASTSS (R11)(BX*1), Z7 // a[2][t]
	VMULPS       Z4, Z7, Z7
	VADDPS       Z7, Z2, Z2

	VBROADCASTSS (R12)(BX*1), Z8 // a[3][t]
	VMULPS       Z4, Z8, Z8
	VADDPS       Z8, Z3, Z3

	ADDQ $64, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  loop16

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), R9
	VMOVUPS Z0, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Z1, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Z2, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Z3, (DI)
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

// func expKernel8(x *float64, n int, tab *[expTableLen]float64)
//
// x[i] = math.Exp(x[i]) for i in [0, n), eight lanes at a time; n ≥ 1 and
// every x[i] lies in [expVecMin, 0] (expInto checks). A last group of
// fewer than eight is loaded and stored under an opmask, so the kernel
// never touches memory past x[n-1]. tab is expTable (exp.go): LOG2E, LN2U,
// LN2L, 1/16, then exprodata's nine values in its order, each read with an
// embedded broadcast.
//
// Each lane replays the FMA branch of math.archExp (exp_amd64.s)
// instruction for instruction — the same operation on the same operands in
// the same order, each rounded once exactly like its scalar SD form:
//
//	t = x·LOG2E; n = round-to-nearest(t) (VCVTPD2DQ, like CVTSD2SL); nf = n
//	r = fnmadd(nf, LN2U, x); r = fnmadd(nf, LN2L, r); r = r·(1/16)
//	p = 1/8!; p = fma(p, r, c) for c = 1/7!, 1/6!, …, 1/3!, 0.5, 1.0
//	r = r·p; three times r = r·(r + 2); then r = fma(r + 2, r, 1.0)
//	result = r·2^n, with 2^n built as (n + 0x3FF) << 52
//
// The range [expVecMin, 0] keeps n + 0x3FF in [13, 1023], so none of
// archExp's special branches (non-finite, overflow, denormal) applies.
TEXT ·expKernel8(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ tab+16(FP), DX

	MOVQ         $0x3FF, AX
	VPBROADCASTQ AX, Z5 // exponent bias

eloop:
	MOVQ $0xFF, AX // lane mask: all eight lanes ...
	CMPQ CX, $8
	JGE  emask
	MOVQ $1, AX    // ... or the low CX lanes of a short last group
	SHLQ CX, AX
	DECQ AX

emask:
	KMOVW     AX, K1
	VMOVUPD.Z (DI), K1, Z0       // x (masked-off lanes 0)
	VMULPD.BCST 0(DX), Z0, Z1    // t = x·LOG2E
	VCVTPD2DQ Z1, Y2             // n = round(t)
	VCVTDQ2PD Y2, Z1             // nf

	VFNMADD231PD.BCST 8(DX), Z1, Z0  // r = x - nf·LN2U
	VFNMADD231PD.BCST 16(DX), Z1, Z0 // r -= nf·LN2L
	VMULPD.BCST       24(DX), Z0, Z0 // r *= 1/16

	VBROADCASTSD     96(DX), Z3     // p = 1/8!
	VFMADD213PD.BCST 88(DX), Z0, Z3 // p = p·r + 1/7!
	VFMADD213PD.BCST 80(DX), Z0, Z3 //       + 1/6!
	VFMADD213PD.BCST 72(DX), Z0, Z3 //       + 1/5!
	VFMADD213PD.BCST 64(DX), Z0, Z3 //       + 1/4!
	VFMADD213PD.BCST 56(DX), Z0, Z3 //       + 1/3!
	VFMADD213PD.BCST 32(DX), Z0, Z3 //       + 0.5
	VFMADD213PD.BCST 40(DX), Z0, Z3 //       + 1.0
	VMULPD           Z3, Z0, Z0     // r *= p

	VADDPD.BCST      48(DX), Z0, Z3 // q = r + 2
	VMULPD           Z3, Z0, Z0     // r *= q
	VADDPD.BCST      48(DX), Z0, Z3
	VMULPD           Z3, Z0, Z0
	VADDPD.BCST      48(DX), Z0, Z3
	VMULPD           Z3, Z0, Z0
	VADDPD.BCST      48(DX), Z0, Z3
	VFMADD213PD.BCST 40(DX), Z3, Z0 // r = q·r + 1

	VPMOVSXDQ Y2, Z4      // n as int64
	VPADDQ    Z5, Z4, Z4  // + bias
	VPSLLQ    $52, Z4, Z4 // 2^n
	VMULPD    Z4, Z0, Z0
	VMOVUPD   Z0, K1, (DI)

	ADDQ $64, DI
	SUBQ $8, CX
	JG   eloop

	VZEROUPPER
	RET
