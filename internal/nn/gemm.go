package nn

// Blocked float32 GEMM. The single real kernel is gemmNT, which computes
// C = A @ Bᵀ with both operands row-major and the contraction dimension K
// contiguous in memory — the pure dot-product layout, so the inner loop
// streams both operands linearly. The other products (a@b, aᵀ@b) are
// expressed by packing the relevant operand's transpose into a contiguous
// panel and calling gemmNT (see tensor.go and the Dense backward pass).
//
// Determinism contract: every output element is produced by ONE accumulator
// chain summing a[i][p]·b[j][p] in strictly ascending p. Blocking and the
// register-tiled micro-kernel change which elements are computed when, never
// the per-element order — so results are bit-identical to the naive
// dot-product reference at any block size, and partitioning rows across
// workers (ForwardBatch) cannot change a single bit.
//
// gemmColBlock is the scalar kernel's only cache-tiling parameter: columns
// of C (= rows of B) are processed in blocks so the B slice touched by the
// micro-kernel stays L1-resident (128 rows × K floats; at the repo's layer
// widths K ≤ 64, that is ≤ 32 KiB). The M and K dimensions are not tiled —
// the A row pair of the micro-kernel is at most a few hundred bytes and
// K never exceeds a few hundred in this codebase. The AVX path's B panel
// is eight rows, so it needs no column blocking.
const gemmColBlock = 128

// gemmPanelK bounds the contraction length the AVX panel path handles: its
// k-major B panel and its row-tail A tile live in fixed-size stack arrays
// (8·256 floats = 8 KiB and 4·256 floats = 4 KiB). Every GEMM in this
// codebase has k ≤ max(layer width, batch size) ≤ 256; anything larger falls
// back to the scalar kernel rather than split k, because splitting k would
// break the single-ascending-chain determinism contract.
const gemmPanelK = 256

// gemmNT writes C = A @ Bᵀ. A is m×k with row stride lda, B is n×k with row
// stride ldb, C is m×n with row stride ldc; every C cell is overwritten.
//
// Two implementations sit behind this dispatcher, both honoring the
// per-element ascending-k contract above, and both performing the identical
// float32 multiply-then-add per term — so they are bit-identical to each
// other and to the naive reference, and the choice of path can never change
// a result:
//
//   - gemmNTPanel (amd64 with AVX, see haveAVX): packs eight B rows into a
//     k-major panel and runs a 4×8 AVX micro-kernel — one 8-lane multiply +
//     add per A element, each lane one output element's chain. VMULPS and
//     VADDPS round each lane exactly like the scalar ops, and the kernel
//     never uses FMA, so vectorizing across *columns* preserves
//     bit-identity where vectorizing across k would not.
//   - gemmNTScalar: the portable 2×4 register-tiled loop, for m < 4,
//     k > gemmPanelK, and CPUs or targets without AVX.
func gemmNT(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if haveAVX && k > 0 && k <= gemmPanelK && m >= 4 {
		gemmNTPanel(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	gemmNTScalar(m, n, k, a, lda, b, ldb, c, ldc)
}

// gemmNTPanel is the AVX path: for each block of eight C columns it packs
// the eight corresponding B rows k-major (panel[t*8+l] = b[j+l][t], so the
// micro-kernel's 8-lane load at step t reads the eight B values of
// contraction index t) and sweeps the A rows four at a time. The last
// column block's missing B rows are zero lanes of the panel, and the last
// row block's missing A rows are zero rows of a packed A tile. Full 4×8
// blocks are stored straight into C; a partial block is computed into a 4×8
// stack tile and only its valid cells are copied out.
func gemmNTPanel(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	var panel [8 * gemmPanelK]float32
	var atile [4 * gemmPanelK]float32
	var ctile [4 * 8]float32
	m4 := m &^ 3
	for r := m4; r < m; r++ {
		copy(atile[(r-m4)*k:], a[r*lda:r*lda+k])
	}
	for j := 0; j < n; j += 8 {
		nb := min(8, n-j)
		for l := 0; l < 8; l++ {
			if l < nb {
				for t, v := range b[(j+l)*ldb : (j+l)*ldb+k] {
					panel[t*8+l] = v
				}
			} else {
				for t := 0; t < k; t++ {
					panel[t*8+l] = 0
				}
			}
		}
		for i := 0; i < m4; i += 4 {
			if nb == 8 {
				gemmKernel4x8(k, &a[i*lda], lda, &panel[0], &c[i*ldc+j], ldc)
			} else {
				gemmKernel4x8(k, &a[i*lda], lda, &panel[0], &ctile[0], 8)
				storeTile(c[i*ldc+j:], ldc, &ctile, 4, nb)
			}
		}
		if m4 < m {
			gemmKernel4x8(k, &atile[0], k, &panel[0], &ctile[0], 8)
			storeTile(c[m4*ldc+j:], ldc, &ctile, m-m4, nb)
		}
	}
}

// storeTile copies the top-left rows×cols cells of a 4×8 kernel tile into
// C (row stride ldc).
func storeTile(c []float32, ldc int, tile *[4 * 8]float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		copy(c[r*ldc:r*ldc+cols], tile[r*8:r*8+cols])
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

// packTranspose writes src's transpose into dst as a contiguous
// Cols×Rows row-major panel, growing dst if needed, and returns it. This is
// how a@b and aᵀ@b become gemmNT calls: the packed panel puts the
// contraction dimension contiguous for the B side of the kernel.
func packTranspose(src *Mat, dst []float32) []float32 {
	n := src.Rows * src.Cols
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	rows, cols := src.Rows, src.Cols
	for r := 0; r < rows; r++ {
		row := src.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
	return dst
}
