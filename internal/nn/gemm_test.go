package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refGemmNT is the naive reference for C = A @ Bᵀ: one accumulator per
// output element, strictly ascending k. The blocked kernel promises
// bit-identical results to exactly this order at any block size, which is
// what makes worker-count byte-identity possible — so the comparisons below
// are exact equality, not tolerance.
func refGemmNT(m, n, k int, a, b []float32) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func randMat(src *rng.Source, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(src.Uniform(-2, 2))
	}
	return m
}

// sameFloat32 is bit equality, except that any two NaNs match: which NaN
// payload survives when two NaNs meet in one operation depends on operand
// order, which the determinism contract does not pin. Every non-NaN result,
// ±0 and ±Inf included, must match bit for bit.
func sameFloat32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// stridedGemmCase builds a gemmNT operand set with row strides lda = k+padA,
// ldb = k+padB and ldc = n+padC. Operand padding holds NaN, so a kernel that
// reads past a row's k values poisons its result; C padding holds a
// sentinel that must survive the call. With special set, one A and one B
// cell in four is replaced by NaN, ±Inf or ±0.
type stridedGemmCase struct {
	m, n, k, lda, ldb, ldc int
	a, b                   []float32
}

const gemmCSentinel = float32(-12345.5)

func newStridedGemmCase(src *rng.Source, m, n, k, padA, padB, padC int, special bool) stridedGemmCase {
	nan := float32(math.NaN())
	specials := []float32{nan, float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	fill := func(rows, cols, ld int) []float32 {
		x := make([]float32, (rows-1)*ld+cols)
		for i := range x {
			x[i] = nan
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				v := float32(src.Uniform(-2, 2))
				if special && src.Intn(4) == 0 {
					v = specials[src.Intn(len(specials))]
				}
				x[r*ld+c] = v
			}
		}
		return x
	}
	g := stridedGemmCase{m: m, n: n, k: k, lda: k + padA, ldb: k + padB, ldc: n + padC}
	g.a = fill(m, k, g.lda)
	g.b = fill(n, k, g.ldb)
	return g
}

// sweepScratch is the packing scratch every case of a sweep reuses, so a
// kernel that reads a cell an earlier, differently shaped call left behind
// shows up as a wrong result.
var sweepScratch gemmScratch

// run calls kernel on a fresh sentinel-filled C, with sweepScratch as its
// packing scratch, and returns C.
func (g stridedGemmCase) run(kernel func(s *gemmScratch, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)) []float32 {
	c := make([]float32, g.m*g.ldc)
	for i := range c {
		c[i] = gemmCSentinel
	}
	kernel(&sweepScratch, g.m, g.n, g.k, g.a, g.lda, g.b, g.ldb, c, g.ldc)
	return c
}

// scalarKernel is gemmNTScalar in run's kernel signature.
func scalarKernel(_ *gemmScratch, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	gemmNTScalar(m, n, k, a, lda, b, ldb, c, ldc)
}

// naive is refGemmNT over the strided operands, laid out like run's C.
func (g stridedGemmCase) naive() []float32 {
	c := make([]float32, g.m*g.ldc)
	for i := range c {
		c[i] = gemmCSentinel
	}
	for i := 0; i < g.m; i++ {
		for j := 0; j < g.n; j++ {
			var s float32
			for p := 0; p < g.k; p++ {
				s += g.a[i*g.lda+p] * g.b[j*g.ldb+p]
			}
			c[i*g.ldc+j] = s
		}
	}
	return c
}

func (g stridedGemmCase) compare(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameFloat32(got[i], want[i]) {
			t.Fatalf("%s m=%d n=%d k=%d lda=%d ldb=%d ldc=%d: C[%d][%d]=%v, want %v (must be bit-identical; padding must stay %v)",
				what, g.m, g.n, g.k, g.lda, g.ldb, g.ldc, i/g.ldc, i%g.ldc, got[i], want[i], gemmCSentinel)
		}
	}
}

// gemmSweepK is the contraction lengths of the kernel sweeps: the extremes,
// a ragged length, the deployed layer widths (55 features, 64 hidden), and
// both sides of gemmPanelK (257 only reaches the scalar fallback).
var gemmSweepK = []int{1, 2, 7, 55, 64, 255, 256, 257}

// gemmSweepN is the column counts of the kernel sweeps: every n up to 17
// (each column tail of the 8-lane panel, the 16-lane panel's full and
// padded blocks, and the ≤8 tails it hands to the 8-lane kernel), then
// multi-block widths around 24 and 32, the 55-wide input layer and the
// 64-wide hidden layers.
var gemmSweepN = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 25, 31, 32, 33, 55, 64}

// TestGemmBlockedMatchesNaive drives the gemmNT dispatcher against the
// naive ascending-k reference at every kernel tier the host runs, at every
// m in 1..9 and each gemmSweepN width — every row tail of the 4-row panel
// blocks and the scalar 2-row blocks, every column tail of the 16- and
// 8-lane panels and the scalar 4-column blocks — at each gemmSweepK
// length, with padded strides (lda > k, ldc > n) and NaN/±Inf/±0 operands.
// Column-block straddles (n around gemmColBlock) and random ragged shapes
// go through MatMulTransB. Exact equality everywhere.
func TestGemmBlockedMatchesNaive(t *testing.T) {
	for _, tier := range hostKernelTiers() {
		withKernelTier(tier, func() { gemmBlockedMatchesNaive(t, tier.name) })
	}
}

func gemmBlockedMatchesNaive(t *testing.T, tier string) {
	src := rng.New(31)
	for _, k := range gemmSweepK {
		for m := 1; m <= 9; m++ {
			for _, n := range gemmSweepN {
				pad := (m + n + k) % 3
				g := newStridedGemmCase(src, m, n, k, pad, 2-pad, pad+1, (m+n)%2 == 0)
				g.compare(t, tier+" gemmNT", g.run(gemmNT), g.naive())
			}
		}
	}
	type shape struct{ m, n, k int }
	shapes := []shape{
		{64, 14, 55}, {64, 64, 64}, {33, 17, 9},
		{3, 127, 5}, {3, 128, 5}, {3, 129, 5}, {2, 130, 3}, {1, 256, 4}, {9, 130, 64},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, shape{1 + src.Intn(40), 1 + src.Intn(40), 1 + src.Intn(40)})
	}
	for _, s := range shapes {
		a := randMat(src, s.m, s.k)
		b := randMat(src, s.n, s.k)
		got := MatMulTransB(a, b)
		want := refGemmNT(s.m, s.n, s.k, a.Data, b.Data)
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("%s shape %dx%dx%d: blocked[%d]=%v naive[%d]=%v (must be bit-identical)",
					tier, s.m, s.n, s.k, i, got.Data[i], i, want[i])
			}
		}
	}
}

// TestGemmPanelMatchesScalar pins the dispatcher's bit-identity promise
// directly: at each panel tier the host runs (16-lane and 8-lane), the
// panel path and the portable scalar path must agree on every shape the
// panel can take — m in 1..9 (every m%4 row tail through the zero-padded A
// tile) and each gemmSweepN width (every column tail through the
// zero-padded panel and the C tile, and the 16-lane tier's hand-off of
// ≤8-column tails to the 8-lane kernel), each k up to gemmPanelK, padded
// strides, and NaN/±Inf/±0 operands. The scalar tier has no panel to
// compare; without AVX the test skips.
func TestGemmPanelMatchesScalar(t *testing.T) {
	ran := false
	for _, tier := range hostKernelTiers() {
		if tier.avx {
			ran = true
			withKernelTier(tier, func() { gemmPanelMatchesScalar(t, tier.name) })
		}
	}
	if !ran {
		t.Skip("no AVX on this CPU or target")
	}
}

func gemmPanelMatchesScalar(t *testing.T, tier string) {
	src := rng.New(53)
	for _, k := range gemmSweepK {
		if k > gemmPanelK {
			continue
		}
		for m := 1; m <= 9; m++ {
			for _, n := range gemmSweepN {
				for _, special := range []bool{false, true} {
					pad := (m * n) % 3
					g := newStridedGemmCase(src, m, n, k, 2-pad, pad, pad, special)
					g.compare(t, tier+" panel vs scalar", g.run(gemmNTPanel), g.run(scalarKernel))
				}
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		g := newStridedGemmCase(src, 4+src.Intn(60), 1+src.Intn(70), 1+src.Intn(80), src.Intn(3), src.Intn(3), src.Intn(3), trial%3 == 0)
		g.compare(t, tier+" panel vs scalar", g.run(gemmNTPanel), g.run(scalarKernel))
	}
}

// TestMatMulVariantsMatchNaive checks the packed-transpose paths (a@b and
// aᵀ@b) against naive ascending-k dot products at ragged shapes.
func TestMatMulVariantsMatchNaive(t *testing.T) {
	src := rng.New(37)
	for trial := 0; trial < 30; trial++ {
		m := 1 + src.Intn(20)
		k := 1 + src.Intn(20)
		n := 1 + src.Intn(20)

		a := randMat(src, m, k)
		b := randMat(src, k, n)
		got := MatMul(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a.Data[i*k+p] * b.Data[p*n+j]
				}
				if got.Data[i*n+j] != s {
					t.Fatalf("MatMul %dx%dx%d at (%d,%d): %v != %v", m, k, n, i, j, got.Data[i*n+j], s)
				}
			}
		}

		at := randMat(src, k, m) // aᵀ stored: k×m
		got = MatMulTransA(at, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += at.Data[p*m+i] * b.Data[p*n+j]
				}
				if got.Data[i*n+j] != s {
					t.Fatalf("MatMulTransA %dx%dx%d at (%d,%d): %v != %v", m, k, n, i, j, got.Data[i*n+j], s)
				}
			}
		}
	}
}

// TestGemmIntoReuseStable proves the Into variants give bit-identical
// results when reusing an oversized scratch matrix.
func TestGemmIntoReuseStable(t *testing.T) {
	src := rng.New(41)
	scratch := NewMat(64, 64) // oversized, will be resliced down
	for trial := 0; trial < 10; trial++ {
		m, n, k := 1+src.Intn(8), 1+src.Intn(8), 1+src.Intn(8)
		a := randMat(src, m, k)
		b := randMat(src, n, k)
		fresh := MatMulTransB(a, b)
		scratch = MatMulTransBInto(a, b, scratch)
		for i := range fresh.Data {
			if scratch.Data[i] != fresh.Data[i] {
				t.Fatalf("reused scratch differs at %d", i)
			}
		}
	}
}

func TestPackTranspose(t *testing.T) {
	src := rng.New(43)
	m := randMat(src, 5, 3)
	panel := packTranspose(m, nil)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if panel[c*m.Rows+r] != m.Data[r*m.Cols+c] {
				t.Fatalf("packTranspose(%d,%d) wrong", r, c)
			}
		}
	}
	// Reuse with exact-size buffer must not allocate a new one.
	buf := make([]float32, 15)
	out := packTranspose(m, buf)
	if &out[0] != &buf[0] {
		t.Fatal("packTranspose reallocated a sufficient buffer")
	}
}
