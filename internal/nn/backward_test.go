package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refBackwardNT is MLP.Backward as it ran before gemmNN existed: both
// gradient products were gemmNT calls over packed transposes (gzᵀ and xᵀ
// for dL/dW, Wᵀ for dL/dx), and every layer, the first included, computed
// its input gradient.
func refBackwardNT(m *MLP, gradOut *Mat) {
	g := gradOut
	for li := len(m.Layers) - 1; li >= 0; li-- {
		d := m.Layers[li]
		n := g.Rows
		gz := g.Clone()
		for r := 0; r < n; r++ {
			for c := 0; c < d.Out; c++ {
				o := d.lastOut.Data[r*d.Out+c]
				switch d.Act {
				case ReLU:
					if o <= 0 {
						gz.Data[r*d.Out+c] = 0
					}
				case Tanh:
					gz.Data[r*d.Out+c] *= 1 - o*o
				}
			}
		}
		gw := make([]float32, d.Out*d.In)
		gemmNT(nil, d.Out, d.In, n, packTranspose(gz, nil), n, packTranspose(d.lastIn, nil), n, gw, d.In)
		for i, v := range gw {
			d.GradW.Data[i] += v
		}
		for r := 0; r < n; r++ {
			for c, v := range gz.Row(r) {
				d.GradB[c] += v
			}
		}
		gx := NewMat(n, d.In)
		gemmNT(nil, n, d.In, d.Out, gz.Data, d.Out, packTranspose(d.W, nil), d.Out, gx.Data, d.In)
		g = gx
	}
}

// TestMLPBackwardMatchesTransposePath requires MLP.Backward's accumulated
// GradW and GradB to equal refBackwardNT's bit for bit, at every kernel
// tier the host runs, on the CMA2C actor and critic shapes (55 → 64 → 64 →
// 14 and → 1, tanh hidden layers) and a ReLU net, at the training batch of
// 64 and at ragged batches that reach the scalar fallbacks. Two backward
// passes accumulate into the same gradients, as a minibatch step's
// ZeroGrad/Backward pair does across calls.
func TestMLPBackwardMatchesTransposePath(t *testing.T) {
	for _, tier := range hostKernelTiers() {
		withKernelTier(tier, func() { mlpBackwardMatchesTransposePath(t, tier.name) })
	}
}

func mlpBackwardMatchesTransposePath(t *testing.T, tier string) {
	src := rng.New(71)
	nets := []struct {
		name  string
		sizes []int
		act   Activation
	}{
		{"actor", []int{55, 64, 64, 14}, Tanh},
		{"critic", []int{55, 64, 64, 1}, Tanh},
		{"relu", []int{9, 17, 5}, ReLU},
	}
	for _, spec := range nets {
		for _, batch := range []int{64, 37, 3, 1} {
			net := NewMLP(src, spec.sizes, spec.act, Identity)
			ref := net.Clone()
			for step := 0; step < 2; step++ {
				x := randMat(src, batch, spec.sizes[0])
				g := randMat(src, batch, spec.sizes[len(spec.sizes)-1])
				net.Forward(x, true)
				ref.Forward(x, true)
				net.Backward(g)
				refBackwardNT(ref, g)
			}
			for li, l := range net.Layers {
				rl := ref.Layers[li]
				for i, v := range l.GradW.Data {
					if math.Float32bits(v) != math.Float32bits(rl.GradW.Data[i]) {
						t.Fatalf("%s %s batch %d layer %d: GradW[%d] = %v, transpose path %v (must be bit-identical)",
							tier, spec.name, batch, li, i, v, rl.GradW.Data[i])
					}
				}
				for i, v := range l.GradB {
					if math.Float32bits(v) != math.Float32bits(rl.GradB[i]) {
						t.Fatalf("%s %s batch %d layer %d: GradB[%d] = %v, transpose path %v (must be bit-identical)",
							tier, spec.name, batch, li, i, v, rl.GradB[i])
					}
				}
			}
		}
	}
}

// TestDenseBackwardReturnsInputGradient: a direct Dense.Backward call still
// returns dL/dx — only MLP.Backward skips it for the first layer — equal
// bit for bit to gz @ W through the transpose path.
func TestDenseBackwardReturnsInputGradient(t *testing.T) {
	src := rng.New(73)
	d := NewDense(src, 55, 64, Identity)
	x, g := randMat(src, 64, 55), randMat(src, 64, 64)
	d.Forward(x, true)
	got := d.Backward(g)
	want := NewMat(64, 55)
	gemmNT(nil, 64, 55, 64, g.Data, 64, packTranspose(d.W, nil), 64, want.Data, 55)
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			t.Fatalf("dL/dx[%d] = %v, want %v", i, got.Data[i], v)
		}
	}
}
