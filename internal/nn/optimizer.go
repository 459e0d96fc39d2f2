package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba), the paper's choice
// ("AdamOptimizer with a learning rate of 0.001").
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float32
}

// NewAdam returns Adam with the standard betas and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// State exposes the step count and moment estimates for checkpointing. The
// returned slices are live views, not copies; m and v are nil until the
// first Step.
func (o *Adam) State() (t int, m, v [][]float32) { return o.t, o.m, o.v }

// Restore sets the step count and moment estimates from a checkpoint. Nil
// moments reproduce a freshly constructed optimizer (Step allocates lazily).
func (o *Adam) Restore(t int, m, v [][]float32) { o.t, o.m, o.v = t, m, v }

// Step applies one update from the gradients accumulated in net, then
// zeroes them. The bias corrections are folded into two
// float64-precomputed scalars so the per-parameter loop is pure float32:
// with bc1 = 1-β1ᵗ and bc2 = 1-β2ᵗ,
//
//	p -= lr · (m/bc1) / (√(v/bc2) + ε)  ≡  p -= α_t · m / (√v + ε̂)
//
// where α_t = lr·√bc2/bc1 and ε̂ = ε·√bc2.
func (o *Adam) Step(net *MLP) {
	params, grads := net.Params()
	if o.m == nil {
		o.m = make([][]float32, len(params))
		o.v = make([][]float32, len(params))
		for i, p := range params {
			o.m[i] = make([]float32, len(p))
			o.v[i] = make([]float32, len(p))
		}
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	alphaT := float32(o.LR * math.Sqrt(bc2) / bc1)
	epsHat := float32(o.Eps * math.Sqrt(bc2))
	b1, omb1 := float32(o.Beta1), float32(1-o.Beta1)
	b2, omb2 := float32(o.Beta2), float32(1-o.Beta2)
	for i, p := range params {
		g := grads[i]
		m, v := o.m[i], o.v[i]
		g = g[:len(p)]
		m = m[:len(p)]
		v = v[:len(p)]
		for j := range p {
			gj := g[j]
			mj := b1*m[j] + omb1*gj
			vj := b2*v[j] + omb2*gj*gj
			m[j], v[j] = mj, vj
			p[j] -= alphaT * mj / (float32(math.Sqrt(float64(vj))) + epsHat)
		}
	}
	net.ZeroGrad()
}
