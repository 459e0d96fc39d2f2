package nn

// Blocked float32 GEMM with two entries that differ only in B's layout:
//
//   - gemmNT computes C = A @ Bᵀ with B row-major n×k, the contraction
//     dimension K contiguous in both operands — the forward pass's layout
//     (a Dense layer stores W as Out×In).
//   - gemmNN computes C = A @ B with B row-major k×n — the backward pass's
//     layout: dL/dW = gzᵀ @ x reads the cached layer input in place and
//     dL/dx = gz @ W reads W in place, so neither is transposed first.
//
// Both run on one panel driver and the same micro-kernels; only the packing
// of B into the k-major panel differs (a transpose of B's rows for gemmNT, a
// copy of B's row segments for gemmNN). aᵀ@b still packs its A operand's
// transpose (see tensor.go and the Dense backward pass).
//
// Determinism contract: every output element is produced by ONE accumulator
// chain summing a[i][p]·b[j][p] (gemmNT) or a[i][p]·b[p][j] (gemmNN) in
// strictly ascending p. Blocking and the register-tiled micro-kernel change
// which elements are computed when, never the per-element order — so
// results are bit-identical to the naive dot-product reference at any block
// size and for either B layout, and partitioning rows across workers
// (ForwardBatch) cannot change a single bit.
//
// gemmColBlock is gemmNTScalar's only cache-tiling parameter: columns
// of C (= rows of B) are processed in blocks so the B slice touched by the
// micro-kernel stays L1-resident (128 rows × K floats; at the repo's layer
// widths K ≤ 64, that is ≤ 32 KiB). The M and K dimensions are not tiled —
// the A row pair of the micro-kernel is at most a few hundred bytes and
// K never exceeds a few hundred in this codebase. The vector path's B
// panel is at most sixteen rows, so it needs no column blocking.
const gemmColBlock = 128

// gemmPanelK bounds the contraction length the panel path handles, and so
// the size of its scratch (16·k panel floats and 4·k A-tile floats). Every
// GEMM in this codebase has k ≤ max(layer width, batch size) ≤ 256;
// anything larger falls back to the scalar kernel rather than split k,
// because splitting k would break the single-ascending-chain determinism
// contract.
const gemmPanelK = 256

// gemmNT writes C = A @ Bᵀ. A is m×k with row stride lda, B is n×k with row
// stride ldb, C is m×n with row stride ldc; every C cell is overwritten. s
// is the caller's packing scratch for the panel path (nil allocates one for
// the call).
//
// Two implementations sit behind this dispatcher, both honoring the
// per-element ascending-k contract above, and both performing the identical
// float32 multiply-then-add per term — so they are bit-identical to each
// other and to the naive reference, and the choice of path can never change
// a result:
//
//   - gemmPanel (amd64 with AVX, see haveAVX and haveAVX512): packs B rows
//     into a k-major panel 16 or 8 lanes wide and runs a 4×16 AVX-512 or
//     4×8 AVX micro-kernel — one multiply + add per A element across the
//     lanes, each lane one output element's chain. VMULPS and VADDPS round
//     each lane exactly like the scalar ops, and the kernels never use FMA,
//     so vectorizing across *columns* preserves bit-identity where
//     vectorizing across k would not.
//   - gemmNTScalar: the portable 2×4 register-tiled loop, for m < 4,
//     k > gemmPanelK, and CPUs or targets without AVX.
func gemmNT(s *gemmScratch, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if usePanel(m, k) {
		gemmPanel(s, m, n, k, a, lda, b, ldb, c, ldc, true)
		return
	}
	gemmNTScalar(m, n, k, a, lda, b, ldb, c, ldc)
}

// gemmNN writes C = A @ B. A is m×k with row stride lda, B is k×n with row
// stride ldb, C is m×n with row stride ldc; every C cell is overwritten. It
// takes the panel path under the same conditions as gemmNT, and otherwise
// gemmNNScalar, which allocates nothing. Both are bit-identical to the
// naive ascending-k reference, like gemmNT's two paths.
func gemmNN(s *gemmScratch, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if usePanel(m, k) {
		gemmPanel(s, m, n, k, a, lda, b, ldb, c, ldc, false)
		return
	}
	gemmNNScalar(m, n, k, a, lda, b, ldb, c, ldc)
}

// usePanel reports whether an m×k A operand takes the vector panel path.
func usePanel(m, k int) bool { return haveAVX && k > 0 && k <= gemmPanelK && m >= 4 }

// gemmScratch is the panel path's packing space: the k-major B panel
// (lanes·k floats), the zero-padded row-tail A tile (4·k) and a C tile for
// partial blocks. Its owner — a layer, or one row block of a ForwardBatch —
// reuses it call to call, so steady-state products allocate nothing. It is
// deliberately not a stack array: Go zeroes those on every call, and a
// 20 KiB clear per product cost more than many of training's small
// products themselves. Every call writes each cell it reads.
type gemmScratch struct {
	panel, atile []float32
	ctile        [4 * 16]float32
}

// grow returns buf resliced to n, reallocating only when it is too small.
func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// gemmPanel is the vector path of both entries; transB selects gemmNT's B
// layout (n×k), else gemmNN's (k×n). s is the caller's packing scratch
// (nil allocates one for the call). It walks the C columns in blocks of
// `lanes` — 16 on the AVX-512 tier while more than eight columns remain,
// else 8 — packs the block's B values k-major into the panel
// (panel[t*lanes+l] is B's value of contraction index t for column j+l —
// b[j+l][t] for gemmNT, b[t][j+l] for gemmNN — so the micro-kernel's load
// at step t reads the block's B values of contraction index t) and sweeps
// the A rows four at a time. A partial column block pads its missing B rows with zero
// lanes, and the last row block's missing A rows are zero rows of a packed
// A tile. Full 4×lanes blocks are stored straight into C; a partial block
// is computed into a C tile and only its valid cells are copied out. A
// column tail of at most eight (the critic's n = 1, say) therefore stays on
// the 8-lane kernel.
func gemmPanel(s *gemmScratch, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, transB bool) {
	if s == nil {
		s = new(gemmScratch)
	}
	maxLanes := 8
	if haveAVX512 {
		maxLanes = 16
	}
	s.panel = grow(s.panel, maxLanes*k)
	m4 := m &^ 3
	if m4 < m {
		s.atile = grow(s.atile, 4*k)
		for r := m4; r < m; r++ {
			copy(s.atile[(r-m4)*k:], a[r*lda:r*lda+k])
		}
		clear(s.atile[(m-m4)*k:])
	}
	for j := 0; j < n; {
		lanes := 8
		kernel := gemmKernel4x8
		if haveAVX512 && n-j > 8 {
			lanes, kernel = 16, gemmKernel4x16
		}
		nb := min(lanes, n-j)
		panel := s.panel[:k*lanes]
		if transB {
			packPanel(panel, b[j*ldb:], ldb, k, nb, lanes)
		} else {
			packRows(panel, b[j:], ldb, k, nb, lanes)
		}
		for i := 0; i < m4; i += 4 {
			if nb == lanes {
				kernel(k, &a[i*lda], lda, &panel[0], &c[i*ldc+j], ldc)
			} else {
				kernel(k, &a[i*lda], lda, &panel[0], &s.ctile[0], lanes)
				storeTile(c[i*ldc+j:], ldc, s.ctile[:], lanes, 4, nb)
			}
		}
		if m4 < m {
			kernel(k, &s.atile[0], k, &panel[0], &s.ctile[0], lanes)
			storeTile(c[m4*ldc+j:], ldc, s.ctile[:], lanes, m-m4, nb)
		}
		j += nb
	}
}

// packPanel writes rows [0, nb) of b (row stride ldb, k values each)
// k-major into panel — panel[t*lanes+l] = b[l][t] — and zeroes lanes
// [nb, lanes). It is the one packing routine of both lane widths. Rows
// move four at a time, so each step fills four adjacent lanes under one
// bounds check.
func packPanel(panel, b []float32, ldb, k, nb, lanes int) {
	l := 0
	for ; l+3 < nb; l += 4 {
		r0 := b[l*ldb : l*ldb+k]
		r1 := b[(l+1)*ldb : (l+1)*ldb+k]
		r2 := b[(l+2)*ldb : (l+2)*ldb+k]
		r3 := b[(l+3)*ldb : (l+3)*ldb+k]
		r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
		for t, v := range r0 {
			p := panel[t*lanes+l : t*lanes+l+4 : t*lanes+l+4]
			p[0], p[1], p[2], p[3] = v, r1[t], r2[t], r3[t]
		}
	}
	for ; l < lanes; l++ {
		if l < nb {
			for t, v := range b[l*ldb : l*ldb+k] {
				panel[t*lanes+l] = v
			}
		} else {
			for t := 0; t < k; t++ {
				panel[t*lanes+l] = 0
			}
		}
	}
}

// packRows is packPanel for gemmNN's k×n B: it writes columns [0, nb) of
// b's k rows (row stride ldb) into panel — panel[t*lanes+l] = b[t][l] — and
// zeroes lanes [nb, lanes). B's row segments are already k-major, so each
// contraction step is one copy.
func packRows(panel, b []float32, ldb, k, nb, lanes int) {
	for t := 0; t < k; t++ {
		p := panel[t*lanes : (t+1)*lanes]
		copy(p, b[t*ldb:t*ldb+nb])
		clear(p[nb:])
	}
}

// storeTile copies the top-left rows×cols cells of a kernel C tile (row
// stride lanes) into C (row stride ldc).
func storeTile(c []float32, ldc int, tile []float32, lanes, rows, cols int) {
	for r := 0; r < rows; r++ {
		copy(c[r*ldc:r*ldc+cols], tile[r*lanes:r*lanes+cols])
	}
}

// gemmNTScalar is the portable kernel. The micro-kernel is 2×4: two A rows
// against four B rows yield eight independent accumulator chains, enough
// instruction-level parallelism to hide FP add latency on a single core
// without changing per-element order.
func gemmNTScalar(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for jb := 0; jb < n; jb += gemmColBlock {
		jmax := jb + gemmColBlock
		if jmax > n {
			jmax = n
		}
		i := 0
		for ; i+1 < m; i += 2 {
			a0 := a[i*lda : i*lda+k]
			a1 := a[(i+1)*lda : (i+1)*lda+k]
			a1 = a1[:len(a0)] // bounds-check elimination for a1[p]
			c0 := c[i*ldc : i*ldc+n]
			c1 := c[(i+1)*ldc : (i+1)*ldc+n]
			j := jb
			for ; j+3 < jmax; j += 4 {
				b0 := b[j*ldb : j*ldb+k]
				b1 := b[(j+1)*ldb : (j+1)*ldb+k]
				b2 := b[(j+2)*ldb : (j+2)*ldb+k]
				b3 := b[(j+3)*ldb : (j+3)*ldb+k]
				b0 = b0[:len(a0)]
				b1 = b1[:len(a0)]
				b2 = b2[:len(a0)]
				b3 = b3[:len(a0)]
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				for p := range a0 {
					av0, av1 := a0[p], a1[p]
					bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
					s00 += av0 * bv0
					s01 += av0 * bv1
					s02 += av0 * bv2
					s03 += av0 * bv3
					s10 += av1 * bv0
					s11 += av1 * bv1
					s12 += av1 * bv2
					s13 += av1 * bv3
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			}
			for ; j < jmax; j++ {
				b0 := b[j*ldb : j*ldb+k]
				b0 = b0[:len(a0)]
				var s0, s1 float32
				for p := range a0 {
					s0 += a0[p] * b0[p]
					s1 += a1[p] * b0[p]
				}
				c0[j], c1[j] = s0, s1
			}
		}
		if i < m {
			a0 := a[i*lda : i*lda+k]
			c0 := c[i*ldc : i*ldc+n]
			j := jb
			for ; j+3 < jmax; j += 4 {
				b0 := b[j*ldb : j*ldb+k]
				b1 := b[(j+1)*ldb : (j+1)*ldb+k]
				b2 := b[(j+2)*ldb : (j+2)*ldb+k]
				b3 := b[(j+3)*ldb : (j+3)*ldb+k]
				b0 = b0[:len(a0)]
				b1 = b1[:len(a0)]
				b2 = b2[:len(a0)]
				b3 = b3[:len(a0)]
				var s0, s1, s2, s3 float32
				for p := range a0 {
					av := a0[p]
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s0, s1, s2, s3
			}
			for ; j < jmax; j++ {
				b0 := b[j*ldb : j*ldb+k]
				b0 = b0[:len(a0)]
				var s float32
				for p := range a0 {
					s += a0[p] * b0[p]
				}
				c0[j] = s
			}
		}
	}
}

// gemmNNScalar is gemmNN's portable kernel. Each C row is cleared and then
// accumulates one B row per contraction step, so every element's chain is
// 0 + a[i][0]·b[0][j] + a[i][1]·b[1][j] + … in ascending p — the naive
// reference's order — while the inner loop streams B rows. It allocates
// nothing; the critic's 1-wide output layer takes it on every backward pass.
func gemmNNScalar(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		clear(crow)
		for p, av := range a[i*lda : i*lda+k] {
			brow := b[p*ldb : p*ldb+n]
			brow = brow[:len(crow)] // bounds-check elimination for crow[j]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// packTranspose writes src's transpose into dst as a contiguous
// Cols×Rows row-major panel, growing dst if needed, and returns it. This is
// how aᵀ@b becomes a gemmNN call: the packed panel puts the contraction
// dimension contiguous for the A side of the kernel.
func packTranspose(src *Mat, dst []float32) []float32 {
	dst = grow(dst, src.Rows*src.Cols)
	rows, cols := src.Rows, src.Cols
	for r := 0; r < rows; r++ {
		row := src.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
	return dst
}
