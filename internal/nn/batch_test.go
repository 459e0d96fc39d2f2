package nn

import (
	"reflect"
	"testing"

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
