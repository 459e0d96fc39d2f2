// Package nn is a small, dependency-free neural-network library sufficient
// for the paper's learning components: dense feed-forward networks trained
// with backpropagation and Adam. CMA2C's actor and critic, the DQN baseline,
// and TBA's REINFORCE policy are all built on it.
//
// Everything operates on row-major float32 tensors with explicit batch
// dimensions; every matrix product routes through the blocked gemmNT kernel
// in gemm.go. The library is deliberately minimal — no autograd graph, just
// layer-by-layer forward/backward — which keeps it fast, deterministic, and
// easy to verify with finite-difference gradient checks (see the tests).
// Scalar entry points (At/Set/SetRow, losses, the softmax helpers) keep a
// float64 boundary so consumers hand simulation features straight in; the
// storage and the kernels are float32.
package nn

import "fmt"

// Mat is a dense row-major float32 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float64 { return float64(m.Data[r*m.Cols+c]) }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = float32(v) }

// Row returns a view of row r.
func (m *Mat) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// SetRow copies a float64 vector into row r, narrowing to float32. This is
// the batch-assembly boundary: simulation observations stay float64 and are
// narrowed exactly once, here.
func (m *Mat) SetRow(r int, v []float64) {
	row := m.Row(r)
	if len(v) != len(row) {
		panic(fmt.Sprintf("nn: SetRow length %d != %d cols", len(v), m.Cols))
	}
	for i, x := range v {
		row[i] = float32(x)
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ensureMat returns out reshaped to rows×cols, reusing its storage when the
// capacity allows and allocating otherwise (out may be nil). Contents are
// unspecified: the Into kernels below either zero or overwrite every cell.
func ensureMat(out *Mat, rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	n := rows * cols
	if out == nil {
		return &Mat{Rows: rows, Cols: cols, Data: make([]float32, n)}
	}
	out.Data = grow(out.Data, n)
	out.Rows, out.Cols = rows, cols
	return out
}

// EnsureMat is the exported form of ensureMat for consumers that keep their
// own batch scratch (the CMA2C/DQN/TBA update steps): it returns out
// reshaped to rows×cols, reusing its storage when capacity allows and
// allocating otherwise (out may be nil). Contents are unspecified.
func EnsureMat(out *Mat, rows, cols int) *Mat { return ensureMat(out, rows, cols) }
