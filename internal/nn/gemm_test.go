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

// run calls kernel on a fresh sentinel-filled C and returns it.
func (g stridedGemmCase) run(kernel func(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)) []float32 {
	c := make([]float32, g.m*g.ldc)
	for i := range c {
		c[i] = gemmCSentinel
	}
	kernel(g.m, g.n, g.k, g.a, g.lda, g.b, g.ldb, c, g.ldc)
	return c
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

// TestGemmBlockedMatchesNaive drives the gemmNT dispatcher against the
// naive ascending-k reference at every m in 1..9 and n in 1..17 — every row
// tail of the 4-row AVX blocks and the scalar 2-row blocks, every column
// tail of the 8-wide AVX panel and the scalar 4-column blocks — at each
// gemmSweepK length, with padded strides (lda > k, ldc > n) and NaN/±Inf/±0
// operands. Column-block straddles (n around gemmColBlock) and random
// ragged shapes go through MatMulTransB. Exact equality everywhere.
func TestGemmBlockedMatchesNaive(t *testing.T) {
	src := rng.New(31)
	for _, k := range gemmSweepK {
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 17; n++ {
				pad := (m + n + k) % 3
				g := newStridedGemmCase(src, m, n, k, pad, 2-pad, pad+1, (m+n)%2 == 0)
				g.compare(t, "gemmNT", g.run(gemmNT), g.naive())
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
				t.Fatalf("shape %dx%dx%d: blocked[%d]=%v naive[%d]=%v (must be bit-identical)",
					s.m, s.n, s.k, i, got.Data[i], i, want[i])
			}
		}
	}
}

// TestGemmPanelMatchesScalar pins the dispatcher's bit-identity promise
// directly: the AVX panel path and the portable scalar path must agree on
// every shape the panel can take — m in 1..9 and n in 1..17 (every m%4 row
// tail through the zero-padded A tile, every n%8 column tail through the
// zero-padded panel and the C tile), each k up to gemmPanelK, padded
// strides, and NaN/±Inf/±0 operands. Without AVX the dispatcher is
// scalar-only and the test is vacuous, so it skips.
func TestGemmPanelMatchesScalar(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this CPU or target")
	}
	src := rng.New(53)
	for _, k := range gemmSweepK {
		if k > gemmPanelK {
			continue
		}
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 17; n++ {
				for _, special := range []bool{false, true} {
					pad := (m * n) % 3
					g := newStridedGemmCase(src, m, n, k, 2-pad, pad, pad, special)
					g.compare(t, "panel vs scalar", g.run(gemmNTPanel), g.run(gemmNTScalar))
				}
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		g := newStridedGemmCase(src, 4+src.Intn(60), 1+src.Intn(70), 1+src.Intn(80), src.Intn(3), src.Intn(3), src.Intn(3), trial%3 == 0)
		g.compare(t, "panel vs scalar", g.run(gemmNTPanel), g.run(gemmNTScalar))
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
