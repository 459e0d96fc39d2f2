package nn

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Tanh
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// applyBiasAct is the fused GEMM epilogue: row = σ(row + b). The activation
// switch is hoisted out of the element loop and row is resliced to the bias
// length so the loops are bounds-check free. With AVX the Tanh case runs
// biasTanh8 over the 8-aligned prefix and tanhF32 over the rest — the
// same bits either way.
func applyBiasAct(row, b []float32, act Activation) {
	row = row[:len(b)]
	switch act {
	case ReLU:
		for c, bv := range b {
			v := row[c] + bv
			if v < 0 {
				v = 0
			}
			row[c] = v
		}
	case Tanh:
		c := 0
		if n8 := len(b) &^ 7; haveAVX && n8 > 0 {
			biasTanh8(&row[0], &b[0], n8, &tanhTable)
			c = n8
		}
		for ; c < len(b); c++ {
			row[c] = tanhF32(row[c] + b[c])
		}
	default:
		for c, bv := range b {
			row[c] += bv
		}
	}
}

// Dense is one fully connected layer out = σ(x @ Wᵀ + b). W is stored
// Out×In row-major — exactly the transposed-B layout the gemmNT kernel
// consumes, so the forward pass needs no packing at all.
type Dense struct {
	In, Out int
	W       *Mat // Out × In
	B       []float32
	Act     Activation

	// training caches (set by Forward, consumed by Backward)
	lastIn  *Mat
	lastOut *Mat

	// accumulated gradients
	GradW *Mat
	GradB []float32

	// layer-owned scratch, reused call to call so the steady-state training
	// loop allocates nothing: trOut backs Forward(train=true) output,
	// bwGz/bwGw/bwGx back Backward's intermediates, bwPackGz holds gzᵀ for
	// the weight-gradient GEMM, and gemm is the GEMM panel's packing space.
	// Each is valid only until the next corresponding call on this layer.
	trOut    *Mat
	bwGz     *Mat
	bwGw     *Mat
	bwGx     *Mat
	bwPackGz []float32
	gemm     gemmScratch
}

// NewDense creates a layer with He/Xavier-style initialization drawn from
// src.
func NewDense(src *rng.Source, in, out int, act Activation) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %d -> %d", in, out))
	}
	d := &Dense{
		In: in, Out: out,
		W: NewMat(out, in), B: make([]float32, out), Act: act,
		GradW: NewMat(out, in), GradB: make([]float32, out),
	}
	scale := math.Sqrt(2.0 / float64(in)) // He init; fine for tanh too at these sizes
	for i := range d.W.Data {
		d.W.Data[i] = float32(src.Norm(0, scale))
	}
	return d
}

// Forward computes the layer output for a batch (rows are samples). With
// train=true the output is backed by layer-owned scratch: it stays valid
// through the matching Backward and until the next Forward(train=true) on
// this layer, and x must likewise stay untouched until Backward consumes it.
// Inference (train=false) allocates a fresh matrix; the allocation-free
// inference path is MLP.ForwardBatch/Forward1.
func (d *Dense) Forward(x *Mat, train bool) *Mat {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense expected %d inputs, got %d", d.In, x.Cols))
	}
	var z *Mat
	if train {
		d.trOut = ensureMat(d.trOut, x.Rows, d.Out)
		z = d.trOut
	} else {
		z = NewMat(x.Rows, d.Out)
	}
	gemm := &d.gemm
	if !train {
		gemm = nil // inference stays safe for concurrent calls
	}
	gemmNT(gemm, x.Rows, d.Out, d.In, x.Data, d.In, d.W.Data, d.In, z.Data, d.Out)
	for r := 0; r < z.Rows; r++ {
		applyBiasAct(z.Row(r), d.B, d.Act)
	}
	if train {
		d.lastIn = x
		d.lastOut = z
	}
	return z
}

// Backward consumes dL/dout and returns dL/dx, accumulating dL/dW and dL/db.
// Forward must have been called with train=true. The returned matrix is
// layer-owned scratch, valid until this layer's next Backward — the chained
// MLP.Backward copies it into the next layer's own scratch immediately.
// Both gradient products are gemmNN calls: dL/dW = gzᵀ @ x contracts over
// the batch index, so gz is packed batch-contiguous (a layer-owned panel)
// and the cached input x is read in place; dL/dx = gz @ W contracts over
// Out and reads W in place.
func (d *Dense) Backward(gradOut *Mat) *Mat { return d.backward(gradOut, true) }

// backward is Backward; with wantDx false it skips the dL/dx product and
// returns nil (the first layer of an MLP, whose input gradient nothing
// reads).
func (d *Dense) backward(gradOut *Mat, wantDx bool) *Mat {
	if d.lastIn == nil {
		panic("nn: Backward before Forward(train=true)")
	}
	n := gradOut.Rows
	// dL/dz = dL/dout * σ'(z), with the activation switch hoisted.
	d.bwGz = ensureMat(d.bwGz, n, gradOut.Cols)
	gz := d.bwGz
	copy(gz.Data, gradOut.Data)
	switch d.Act {
	case ReLU:
		for r := 0; r < n; r++ {
			grow := gz.Row(r)
			orow := d.lastOut.Row(r)
			orow = orow[:len(grow)]
			for c := range grow {
				if orow[c] <= 0 {
					grow[c] = 0
				}
			}
		}
	case Tanh:
		for r := 0; r < n; r++ {
			grow := gz.Row(r)
			orow := d.lastOut.Row(r)
			orow = orow[:len(grow)]
			for c := range grow {
				grow[c] *= 1 - orow[c]*orow[c]
			}
		}
	}
	// dL/dW += gzᵀ @ x ; dL/db += Σ gz rows
	d.bwPackGz = packTranspose(gz, d.bwPackGz)
	d.bwGw = ensureMat(d.bwGw, d.Out, d.In)
	gemmNN(&d.gemm, d.Out, d.In, n, d.bwPackGz, n, d.lastIn.Data, d.In, d.bwGw.Data, d.In)
	for i, v := range d.bwGw.Data {
		d.GradW.Data[i] += v
	}
	for r := 0; r < n; r++ {
		row := gz.Row(r)
		gb := d.GradB[:len(row)]
		for c, v := range row {
			gb[c] += v
		}
	}
	if !wantDx {
		return nil
	}
	// dL/dx = gz @ W
	d.bwGx = ensureMat(d.bwGx, n, d.In)
	gemmNN(&d.gemm, n, d.In, d.Out, gz.Data, d.Out, d.W.Data, d.In, d.bwGx.Data, d.In)
	return d.bwGx
}

// ZeroGrad clears the accumulated gradients.
func (d *Dense) ZeroGrad() {
	for i := range d.GradW.Data {
		d.GradW.Data[i] = 0
	}
	for i := range d.GradB {
		d.GradB[i] = 0
	}
}

// MLP is a stack of dense layers.
type MLP struct {
	Layers []*Dense

	// Inference scratch: tiles holds each worker block's tile buffers (see
	// ForwardBlocks), so only out, ForwardBatch's result, is batch-sized;
	// results alias out and stay valid until the next inference call on
	// this network. x1 backs Forward1's single-row input. call is the
	// running call's arguments, read by runBlock (forwardBlock, bound once
	// so a fan-out allocates nothing), and fan runs the blocks. None of
	// these are shared by Clone, and checkpoints never touch them.
	tiles    []tileScratch
	out      *Mat
	x1       *Mat
	call     inferCall
	runBlock func(block int)
	fan      parallel.Fan

	// Params() result cache: the layer list is fixed after construction, so
	// the flat parameter/gradient views are built once — optimizers call
	// Params() every step and must stay allocation-free.
	paramsCache [][]float32
	gradsCache  [][]float32
}

// NewMLP builds a network with the given layer sizes; hidden layers use
// hiddenAct, the last layer outAct. sizes must list at least input and
// output widths.
func NewMLP(src *rng.Source, sizes []int, hiddenAct, outAct Activation) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDense(src, sizes[i], sizes[i+1], act))
	}
	return m
}

// InputSize returns the expected feature width.
func (m *MLP) InputSize() int { return m.Layers[0].In }

// OutputSize returns the output width.
func (m *MLP) OutputSize() int { return m.Layers[len(m.Layers)-1].Out }

// Forward runs the network on a batch.
func (m *MLP) Forward(x *Mat, train bool) *Mat {
	out := x
	for _, l := range m.Layers {
		out = l.Forward(out, train)
	}
	return out
}

// Forward1 runs the network on a single sample and returns the output row.
// The row aliases the MLP's internal inference arena: it is valid until the
// next Forward1/ForwardBatch call on this network, and callers
// keeping it longer must copy it out. Like all scratch-backed paths, Forward1
// is not safe for concurrent calls on a shared MLP — ForwardBatch is the
// parallel entry point.
func (m *MLP) Forward1(x []float64) []float32 {
	m.x1 = ensureMat(m.x1, 1, m.InputSize())
	m.x1.SetRow(0, x)
	return m.ForwardBatch(m.x1, 1).Row(0)
}

// Backward propagates dL/dout through all layers, accumulating gradients.
// The first layer's input gradient is never read, so it is not computed.
func (m *MLP) Backward(gradOut *Mat) {
	g := gradOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].backward(g, i > 0)
	}
}

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// Params returns flat views of all parameters and their gradients, in a
// stable order, for use by optimizers.
func (m *MLP) Params() (params, grads [][]float32) {
	if len(m.paramsCache) != 2*len(m.Layers) {
		m.paramsCache = make([][]float32, 0, 2*len(m.Layers))
		m.gradsCache = make([][]float32, 0, 2*len(m.Layers))
		for _, l := range m.Layers {
			m.paramsCache = append(m.paramsCache, l.W.Data, l.B)
			m.gradsCache = append(m.gradsCache, l.GradW.Data, l.GradB)
		}
	}
	return m.paramsCache, m.gradsCache
}

// CopyWeightsFrom copies all parameters from src (shapes must match). Target
// networks in DQN and CMA2C use it for the periodic hard update.
func (m *MLP) CopyWeightsFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: CopyWeightsFrom layer count mismatch")
	}
	for i, l := range m.Layers {
		s := src.Layers[i]
		if l.In != s.In || l.Out != s.Out {
			panic("nn: CopyWeightsFrom shape mismatch")
		}
		copy(l.W.Data, s.W.Data)
		copy(l.B, s.B)
	}
}

// Clone returns a deep copy of the network (weights only; caches and
// gradients are fresh).
func (m *MLP) Clone() *MLP {
	out := &MLP{}
	for _, l := range m.Layers {
		nl := &Dense{
			In: l.In, Out: l.Out, Act: l.Act,
			W: l.W.Clone(), B: append([]float32(nil), l.B...),
			GradW: NewMat(l.Out, l.In), GradB: make([]float32, l.Out),
		}
		out.Layers = append(out.Layers, nl)
	}
	return out
}
