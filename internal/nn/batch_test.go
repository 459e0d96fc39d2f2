package nn

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// ForwardBatch must match a serial Forward1 loop bit-for-bit at every
// worker count — the batched-inference half of the serial≡parallel
// invariant, and the batch-vs-single-row equivalence proof: one GEMM over
// 33 rows against 33 single-row GEMMs.
func TestForwardBatchMatchesForward1(t *testing.T) {
	src := rng.New(7)
	m := NewMLP(src, []int{12, 16, 5}, Tanh, Identity)
	x := NewMat(33, 12)
	want := make([][]float32, x.Rows)
	for i := range want {
		r := make([]float64, x.Cols)
		for j := range r {
			r[j] = src.Uniform(-2, 2)
		}
		x.SetRow(i, r)
		// Forward1 returns a view into the MLP's inference arena; copy it
		// out before the next call reuses the buffer.
		want[i] = append([]float32(nil), m.Forward1(r)...)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		out := m.ForwardBatch(x, workers)
		got := make([][]float32, out.Rows)
		for i := range got {
			got[i] = out.Row(i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batched forward differs from serial Forward1", workers)
		}
	}
}

// ForwardBatch must agree bit-for-bit with the training-path Forward and
// with itself at every worker partition.
func TestForwardBatchMatchesForward(t *testing.T) {
	src := rng.New(17)
	m := NewMLP(src, []int{9, 11, 4}, ReLU, Identity)
	x := NewMat(21, 9)
	for i := range x.Data {
		x.Data[i] = float32(src.Uniform(-2, 2))
	}
	want := m.Forward(x.Clone(), false)
	for _, workers := range []int{1, 2, 5, 21, 64} {
		got := m.ForwardBatch(x, workers)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d", workers, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: element %d differs: %v != %v", workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// The tile path at and around its boundaries: row counts below, at and
// past one tile and several tiles, split over worker counts that leave
// ragged blocks and 1–3-row tail tiles (the scalar GEMM). ForwardBatch and
// the hooked ForwardBlocks must equal a row-by-row Forward1 bit for bit on
// every kernel tier, every row must pass through pre and post exactly
// once, and no tile may cross its block's boundary. Short tier, so the
// race pass runs the blocks' hooks concurrently.
func TestForwardTilesMatchForward1(t *testing.T) {
	m, _ := testNet(t)
	src := rng.New(3)
	const maxN = 3079
	x := NewMat(maxN, m.InputSize())
	for i := range x.Data {
		x.Data[i] = float32(src.Uniform(-2, 2))
	}
	row := make([]float64, m.InputSize())
	for _, tier := range hostKernelTiers() {
		withKernelTier(tier, func() {
			want := make([]float32, maxN*m.OutputSize())
			for i := 0; i < maxN; i++ {
				for j, v := range x.Row(i) {
					row[j] = float64(v)
				}
				copy(want[i*m.OutputSize():], m.Forward1(row))
			}
			scalarTails := 0
			for _, n := range []int{1, 3, 4, 511, 512, 513, 1025, maxN} {
				xn := &Mat{Rows: n, Cols: x.Cols, Data: x.Data[:n*x.Cols]}
				wantN := want[:n*m.OutputSize()]
				for _, workers := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("%s/n=%d/workers=%d", tier.name, n, workers)
					if got := m.ForwardBatch(xn, workers); !reflect.DeepEqual(got.Data, wantN) {
						t.Fatalf("%s: ForwardBatch differs from Forward1", name)
					}
					got := make([]float32, len(wantN))
					pres, posts := make([]int, n), make([]int, n)
					blocks := min(workers, n)
					tiles := make([][][2]int, blocks)
					pre := func(block, lo, hi int, in *Mat) {
						tiles[block] = append(tiles[block], [2]int{lo, hi})
						if in.Rows != hi-lo || in.Cols != m.InputSize() {
							t.Errorf("%s: pre tile [%d,%d) is %dx%d", name, lo, hi, in.Rows, in.Cols)
						}
						copy(in.Data, xn.Data[lo*xn.Cols:hi*xn.Cols])
						for r := lo; r < hi; r++ {
							pres[r]++
						}
					}
					post := func(block, lo, hi int, out *Mat) {
						if out.Rows != hi-lo || out.Cols != m.OutputSize() {
							t.Errorf("%s: post tile [%d,%d) is %dx%d", name, lo, hi, out.Rows, out.Cols)
						}
						copy(got[lo*out.Cols:], out.Data)
						for r := lo; r < hi; r++ {
							posts[r]++
						}
					}
					m.ForwardBlocks(n, workers, pre, post)
					if !reflect.DeepEqual(got, wantN) {
						t.Fatalf("%s: ForwardBlocks differs from Forward1", name)
					}
					for r := range pres {
						if pres[r] != 1 || posts[r] != 1 {
							t.Fatalf("%s: row %d passed pre %d and post %d times", name, r, pres[r], posts[r])
						}
					}
					for b, ts := range tiles {
						lo, hi := parallel.Chunk(n, blocks, b)
						next := lo
						for _, tl := range ts {
							if tl[0] != next || tl[1] > hi || tl[1]-tl[0] > tileRows {
								t.Fatalf("%s: block %d [%d,%d) has tile %v", name, b, lo, hi, tl)
							}
							if rows := tl[1] - tl[0]; rows < 4 && n > tileRows {
								scalarTails++
							}
							next = tl[1]
						}
						if next != hi {
							t.Fatalf("%s: block %d [%d,%d) tiled up to %d", name, b, lo, hi, next)
						}
					}
				}
			}
			if scalarTails == 0 {
				t.Fatal("no 1-3-row tail tile after a full one")
			}
		})
	}
}
