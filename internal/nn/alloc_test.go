package nn

import (
	"testing"

	"repro/internal/rng"
)

// refForward1 is a deliberately naive fresh-allocation forward pass using
// the same per-element accumulation order as the blocked kernel (one float32
// chain, ascending k) and the same bias-then-activation epilogue, so its
// results must be bit-identical to the arena-backed Forward1 — any
// divergence means blocking or buffer reuse changed an operation order.
func refForward1(m *MLP, x []float64) []float32 {
	in := make([]float32, len(x))
	for i, v := range x {
		in[i] = float32(v)
	}
	for _, l := range m.Layers {
		out := make([]float32, l.Out)
		for j := 0; j < l.Out; j++ {
			w := l.W.Row(j)
			var s float32
			for k := range in {
				s += in[k] * w[k]
			}
			out[j] = l.Act.apply(s + l.B[j])
		}
		in = out
	}
	return in
}

func testNet(tb testing.TB) (*MLP, [][]float64) {
	tb.Helper()
	src := rng.New(99)
	m := NewMLP(src, []int{55, 64, 64, 14}, ReLU, Identity)
	inputs := make([][]float64, 32)
	for i := range inputs {
		row := make([]float64, 55)
		for j := range row {
			row[j] = src.Uniform(-2, 2)
		}
		inputs[i] = row
	}
	return m, inputs
}

func TestForward1MatchesFreshAllocReference(t *testing.T) {
	m, inputs := testNet(t)
	for i, x := range inputs {
		got := m.Forward1(x)
		want := refForward1(m, x)
		if len(got) != len(want) {
			t.Fatalf("input %d: got %d outputs, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("input %d output %d: arena path %v != reference %v (must be bit-identical)", i, j, got[j], want[j])
			}
		}
	}
}

func TestForward1ZeroAlloc(t *testing.T) {
	m, inputs := testNet(t)
	m.Forward1(inputs[0]) // allocate the arena once
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		m.Forward1(inputs[i%len(inputs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Forward1 allocates %v/op, want 0", allocs)
	}
}

func TestForwardBatchZeroAlloc(t *testing.T) {
	m, inputs := testNet(t)
	x := NewMat(len(inputs), 55)
	for i, r := range inputs {
		x.SetRow(i, r)
	}
	m.ForwardBatch(x, 1) // allocate the arenas once
	allocs := testing.AllocsPerRun(50, func() {
		m.ForwardBatch(x, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardBatch allocates %v/op, want 0", allocs)
	}
}

// TestTrainStepZeroAlloc pins the batched training step — forward, MSE,
// backward, Adam — at zero steady-state allocations through the layer-owned
// scratch (trOut, bwGz/bwGw/bwGx, and the transposed pack panels).
func TestTrainStepZeroAlloc(t *testing.T) {
	m, inputs := testNet(t)
	x := NewMat(len(inputs), 55)
	for i, r := range inputs {
		x.SetRow(i, r)
	}
	y := NewMat(len(inputs), 14)
	opt := NewAdam(1e-4)
	var grad *Mat
	step := func() {
		m.ZeroGrad()
		pred := m.Forward(x, true)
		_, grad = MSELossInto(pred, y, grad)
		m.Backward(grad)
		opt.Step(m)
	}
	step() // allocate scratch and optimizer moments once
	allocs := testing.AllocsPerRun(20, func() { step() })
	if allocs != 0 {
		t.Fatalf("steady-state train step allocates %v/op, want 0", allocs)
	}
}
