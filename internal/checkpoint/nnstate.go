package checkpoint

import (
	"fmt"

	"repro/internal/nn"
)

// Shared encoders for the neural-network state every learner carries. A
// layer is its shape, activation, weights and biases, written through the
// deterministic codec; decoding validates every shape, activation code and
// inter-layer width: a checkpoint is untrusted input.
//
// Container version 2 switched the weight and moment payloads from float64
// to float32, matching the nn backend's storage: the file holds the exact
// bits the kernels compute with. Version 1 files fail closed at the header
// with ErrVersion before any payload decode runs.

// EncodeMLP appends a network's architecture and weights.
func EncodeMLP(e *Encoder, m *nn.MLP) {
	e.U32(uint32(len(m.Layers)))
	for _, l := range m.Layers {
		e.Int(l.In)
		e.Int(l.Out)
		e.U8(uint8(l.Act))
		e.Floats32(l.W.Data)
		e.Floats32(l.B)
	}
}

// minLayerBytes is the smallest possible encoded layer: In + Out + Act +
// two slice length prefixes.
const minLayerBytes = 8 + 8 + 1 + 4 + 4

// DecodeMLP reads a network written by EncodeMLP. Shapes, activation codes,
// and inter-layer widths are all validated; a malformed payload returns an
// error and never a partially built network.
func DecodeMLP(d *Decoder) (*nn.MLP, error) {
	n, ok := d.Count(d.U32(), minLayerBytes)
	if !ok {
		return nil, d.Err()
	}
	if n == 0 {
		return nil, fmt.Errorf("checkpoint: empty network")
	}
	m := &nn.MLP{}
	for i := 0; i < n; i++ {
		in, out := d.Int(), d.Int()
		act := nn.Activation(d.U8())
		w := d.Floats32()
		b := d.Floats32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if in <= 0 || out <= 0 || len(w) != in*out || len(b) != out {
			return nil, fmt.Errorf("checkpoint: layer %d malformed: shape %dx%d with %d weights, %d biases", i, out, in, len(w), len(b))
		}
		if act < nn.Identity || act > nn.Tanh {
			return nil, fmt.Errorf("checkpoint: layer %d has unknown activation code %d", i, int(act))
		}
		if i > 0 && in != m.Layers[i-1].Out {
			return nil, fmt.Errorf("checkpoint: layer %d input width %d does not chain from previous output %d", i, in, m.Layers[i-1].Out)
		}
		m.Layers = append(m.Layers, &nn.Dense{
			In: in, Out: out, Act: act,
			W: nn.FromSlice(out, in, w), B: b,
			GradW: nn.NewMat(out, in), GradB: make([]float32, out),
		})
	}
	return m, nil
}

// EncodeAdam appends an Adam optimizer's hyperparameters, step count, and
// first/second moment estimates. The learning rate is part of the state on
// purpose: CMA2C and TBA drop to LR×0.1 when fine-tuning starts, and a
// resumed run must keep that rate, not the constructor's.
func EncodeAdam(e *Encoder, o *nn.Adam) {
	e.F64(o.LR)
	e.F64(o.Beta1)
	e.F64(o.Beta2)
	e.F64(o.Eps)
	t, m, v := o.State()
	e.Int(t)
	e.U32(uint32(len(m)))
	for _, s := range m {
		e.Floats32(s)
	}
	for _, s := range v {
		e.Floats32(s)
	}
}

// DecodeAdam reads an optimizer written by EncodeAdam. Moment shapes are
// only checked internally consistent here; AdamMatches ties them to a
// specific network.
func DecodeAdam(d *Decoder) (*nn.Adam, error) {
	o := nn.NewAdam(0)
	o.LR = d.F64()
	o.Beta1 = d.F64()
	o.Beta2 = d.F64()
	o.Eps = d.F64()
	t := d.Int()
	n, ok := d.Count(d.U32(), 4)
	if !ok {
		return nil, d.Err()
	}
	var m, v [][]float32
	if n > 0 {
		m = make([][]float32, n)
		v = make([][]float32, n)
		for i := range m {
			m[i] = d.Floats32()
		}
		for i := range v {
			v[i] = d.Floats32()
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, fmt.Errorf("checkpoint: negative adam step count %d", t)
	}
	o.Restore(t, m, v)
	return o, nil
}

// SameShape reports whether two networks have identical layer shapes and
// activations (e.g. a target network against its online network).
func SameShape(a, b *nn.MLP) bool {
	if len(a.Layers) != len(b.Layers) {
		return false
	}
	for i, l := range a.Layers {
		o := b.Layers[i]
		if l.In != o.In || l.Out != o.Out || l.Act != o.Act {
			return false
		}
	}
	return true
}

// AdamMatches reports whether o's moment estimates fit net's parameters: the
// optimizer either never stepped (empty moments, lazily allocated on first
// Step) or carries one moment pair per parameter group of matching length.
func AdamMatches(o *nn.Adam, net *nn.MLP) bool {
	_, m, v := o.State()
	if len(m) == 0 && len(v) == 0 {
		return true
	}
	params, _ := net.Params()
	if len(m) != len(params) || len(v) != len(params) {
		return false
	}
	for i := range params {
		if len(m[i]) != len(params[i]) || len(v[i]) != len(params[i]) {
			return false
		}
	}
	return true
}
