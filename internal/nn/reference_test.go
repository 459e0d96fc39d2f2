package nn

import (
	"fmt"
	"math"
)

// Reference forms the kernel and loss tests compare against. None of them
// runs outside tests: the network's products call gemmNT/gemmNN with
// layer-owned scratch, its activations run in the fused epilogue and
// Dense.backward, and PolicyGradientRowInto folds in its entropy term.

// matMulInto computes a @ b into out's storage (reused when it fits, nil
// allocates) and returns out. This is gemmNN's native layout: both operands
// are read in place.
func matMulInto(a, b, out *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = ensureMat(out, a.Rows, b.Cols)
	gemmNN(nil, a.Rows, b.Cols, a.Cols, a.Data, a.Cols, b.Data, b.Cols, out.Data, out.Cols)
	return out
}

// matMulTransBInto computes a @ bᵀ into out's storage (reused when it fits,
// nil allocates) and returns out. This is gemmNT's native layout: no packing,
// no zeroing pass, every cell written exactly once.
func matMulTransBInto(a, b, out *Mat) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulTransB shape mismatch %dx%d @ (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = ensureMat(out, a.Rows, b.Rows)
	gemmNT(nil, a.Rows, b.Rows, a.Cols, a.Data, a.Cols, b.Data, b.Cols, out.Data, out.Cols)
	return out
}

// matMulTransAInto computes aᵀ @ b into out's storage (reused when it fits,
// nil allocates) and returns out. a is packed transposed (allocated per
// call; the training path uses a layer-owned pack instead) and b is read in
// place by gemmNN.
func matMulTransAInto(a, b, out *Mat) *Mat {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: MatMulTransA shape mismatch (%dx%d)ᵀ @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out = ensureMat(out, a.Cols, b.Cols)
	at := packTranspose(a, nil)
	gemmNN(nil, a.Cols, b.Cols, a.Rows, at, a.Rows, b.Data, b.Cols, out.Data, out.Cols)
	return out
}

// apply is the activation σ(z) one element at a time: the scalar form
// refForward1 evaluates against the fused epilogue (applyBiasAct).
func (a Activation) apply(z float32) float32 {
	switch a {
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Tanh:
		return tanhF32(z)
	default:
		return z
	}
}

// derivFromOut returns dσ/dz expressed via the activation output (possible
// for ReLU and tanh, which keeps the backward pass cache small): the
// per-element form of what Dense.backward applies in place.
func (a Activation) derivFromOut(out float32) float32 {
	switch a {
	case ReLU:
		if out > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - out*out
	default:
		return 1
	}
}

// entropy returns the Shannon entropy of a probability vector.
func entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}
