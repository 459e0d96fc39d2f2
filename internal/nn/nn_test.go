package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := matMulInto(a, b, nil)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulTransVariants(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	bt := FromSlice(2, 3, []float32{7, 9, 11, 8, 10, 12}) // b transposed
	c := matMulTransBInto(a, bt, nil)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMulTransB[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
	at := FromSlice(3, 2, []float32{1, 4, 2, 5, 3, 6}) // a transposed
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c2 := matMulTransAInto(at, b, nil)
	for i, v := range want {
		if c2.Data[i] != v {
			t.Fatalf("MatMulTransA[%d] = %v, want %v", i, c2.Data[i], v)
		}
	}
}

func TestMatShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewMat invalid", func() { NewMat(0, 3) })
	mustPanic("FromSlice mismatch", func() { FromSlice(2, 2, []float32{1}) })
	a := NewMat(2, 3)
	b := NewMat(2, 3)
	mustPanic("MatMul mismatch", func() { matMulInto(a, b, nil) })
}

// f64Apply mirrors Activation.apply in float64 for the finite-difference
// shadow network below.
func f64Apply(a Activation, z float64) float64 {
	switch a {
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Tanh:
		return math.Tanh(z)
	default:
		return z
	}
}

// f64Loss evaluates the network's MSE loss entirely in float64 from a
// float64 copy of the parameters (params64 lists W then B per layer, the
// Params order). Finite differences on the float32 weights directly would
// drown in rounding; perturbing the float64 shadow keeps the numeric
// gradient exact while probing the same function the float32 engine
// approximates.
func f64Loss(net *MLP, params64 [][]float64, x, target *Mat) float64 {
	var loss float64
	n := 0
	for r := 0; r < x.Rows; r++ {
		in := make([]float64, x.Cols)
		for c := range in {
			in[c] = x.At(r, c)
		}
		for li, l := range net.Layers {
			w := params64[2*li]
			b := params64[2*li+1]
			out := make([]float64, l.Out)
			for j := 0; j < l.Out; j++ {
				s := b[j]
				for k := 0; k < l.In; k++ {
					s += in[k] * w[j*l.In+k]
				}
				out[j] = f64Apply(l.Act, s)
			}
			in = out
		}
		for c := range in {
			d := in[c] - target.At(r, c)
			loss += d * d
			n++
		}
	}
	return loss / float64(n)
}

func TestBackpropMatchesFiniteDifferences(t *testing.T) {
	src := rng.New(1)
	for _, act := range []Activation{Identity, Tanh, ReLU} {
		net := NewMLP(src, []int{3, 5, 4, 2}, act, Identity)
		x := NewMat(4, 3)
		target := NewMat(4, 2)
		for i := range x.Data {
			x.Data[i] = float32(src.Norm(0, 1))
		}
		for i := range target.Data {
			target.Data[i] = float32(src.Norm(0, 1))
		}
		net.ZeroGrad()
		pred := net.Forward(x, true)
		_, grad := MSELoss(pred, target)
		net.Backward(grad)
		_, analytic := net.Params()

		params, _ := net.Params()
		params64 := make([][]float64, len(params))
		for i, p := range params {
			params64[i] = make([]float64, len(p))
			for j, v := range p {
				params64[i][j] = float64(v)
			}
		}
		const eps = 1e-6
		for i := range params64 {
			for j := range params64[i] {
				orig := params64[i][j]
				params64[i][j] = orig + eps
				lp := f64Loss(net, params64, x, target)
				params64[i][j] = orig - eps
				lm := f64Loss(net, params64, x, target)
				params64[i][j] = orig
				numeric := (lp - lm) / (2 * eps)
				a := float64(analytic[i][j])
				// The analytic gradient ran in float32: allow its rounding.
				scale := math.Max(1e-3, math.Max(math.Abs(a), math.Abs(numeric)))
				if math.Abs(a-numeric)/scale > 2e-3 {
					t.Fatalf("act=%v: grad[%d][%d] analytic=%v numeric=%v", act, i, j, a, numeric)
				}
			}
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	src := rng.New(7)
	net := NewMLP(src, []int{2, 8, 1}, Tanh, Identity)
	opt := NewAdam(0.02)
	x := FromSlice(4, 2, []float32{0, 0, 0, 1, 1, 0, 1, 1})
	y := FromSlice(4, 1, []float32{0, 1, 1, 0})
	var loss float64
	for epoch := 0; epoch < 2000; epoch++ {
		net.ZeroGrad()
		pred := net.Forward(x, true)
		var grad *Mat
		loss, grad = MSELoss(pred, y)
		net.Backward(grad)
		opt.Step(net)
	}
	if loss > 0.01 {
		t.Fatalf("XOR not learned, final loss %v", loss)
	}
	for i := 0; i < 4; i++ {
		in := []float64{x.At(i, 0), x.At(i, 1)}
		pred := float64(net.Forward1(in)[0])
		if math.Abs(pred-float64(y.Data[i])) > 0.2 {
			t.Fatalf("XOR(%v) = %v, want %v", in, pred, y.Data[i])
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := SoftmaxInto([]float32{1, 1, 1}, nil, make([]float64, 3))
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Masking.
	p = SoftmaxInto([]float32{5, 100, 5}, []bool{true, false, true}, make([]float64, 3))
	if p[1] != 0 {
		t.Fatal("masked entry got probability")
	}
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[2]-0.5) > 1e-12 {
		t.Fatalf("masked softmax = %v", p)
	}
	// Numerical stability at large logits.
	p = SoftmaxInto([]float32{1000, 1001}, nil, make([]float64, 2))
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Fatal("softmax overflow")
	}
	if p[1] <= p[0] {
		t.Fatal("softmax ordering wrong")
	}
	// Fully masked: every entry of the (dirty) scratch is cleared.
	p = SoftmaxInto([]float32{1, 2}, []bool{false, false}, []float64{7, 7})
	if p[0] != 0 || p[1] != 0 {
		t.Fatal("fully masked softmax should be zeros")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		logits := make([]float32, 1+src.Intn(10))
		for i := range logits {
			logits[i] = float32(src.Norm(0, 10))
		}
		p := SoftmaxInto(logits, nil, make([]float64, len(logits)))
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative probability")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("softmax sum = %v", sum)
		}
	}
}

func TestPolicyGradientDirection(t *testing.T) {
	// Repeatedly applying the gradient for a fixed chosen action with
	// positive advantage must increase that action's probability.
	logits := []float32{0.1, 0.2, 0.3}
	action := 0
	probs := make([]float64, len(logits))
	before := SoftmaxInto(logits, nil, probs)[action]
	for iter := 0; iter < 50; iter++ {
		g := PolicyGradient(logits, nil, action, 1.0)
		for i := range logits {
			logits[i] -= 0.1 * g[i] // descend the loss = ascend log-prob
		}
	}
	after := SoftmaxInto(logits, nil, probs)[action]
	if after <= before {
		t.Fatalf("action prob %v -> %v did not increase", before, after)
	}
	// Negative advantage pushes the other way.
	logits = []float32{0.1, 0.2, 0.3}
	before = SoftmaxInto(logits, nil, probs)[action]
	for iter := 0; iter < 50; iter++ {
		g := PolicyGradient(logits, nil, action, -1.0)
		for i := range logits {
			logits[i] -= 0.1 * g[i]
		}
	}
	after = SoftmaxInto(logits, nil, probs)[action]
	if after >= before {
		t.Fatalf("action prob %v -> %v did not decrease with negative advantage", before, after)
	}
}

func TestPolicyGradientZeroSum(t *testing.T) {
	// Σ_i grad_i = advantage·(Σπ − 1) = 0 when unmasked (up to float32
	// rounding of the stored entries).
	g := PolicyGradient([]float32{1, 2, 3}, nil, 1, 2.5)
	var sum float64
	for _, v := range g {
		sum += float64(v)
	}
	if math.Abs(sum) > 1e-6 {
		t.Fatalf("gradient sum = %v, want 0", sum)
	}
}

func TestPolicyGradientRowIntoMatchesUnfused(t *testing.T) {
	// The fused helper with entCoef=0, scale=1 must agree with the
	// allocating PolicyGradient, and the entropy term must match the
	// analytic dH/dlogits formula.
	logits := []float32{0.4, -1.2, 2.0, 0.0}
	mask := []bool{true, true, false, true}
	probs := make([]float64, len(logits))
	grad := make([]float32, len(logits))
	PolicyGradientRowInto(logits, mask, 1, 1.7, 0, 1, probs, grad)
	want := PolicyGradient(logits, mask, 1, 1.7)
	for i := range want {
		if grad[i] != want[i] {
			t.Fatalf("fused[%d] = %v, want %v", i, grad[i], want[i])
		}
	}
	// advantage=0 isolates the entropy term: grad_i = coef·p_i(log p_i + H).
	const coef = 0.3
	PolicyGradientRowInto(logits, mask, 1, 0, coef, 1, probs, grad)
	p := SoftmaxInto(logits, mask, make([]float64, len(logits)))
	ent := entropy(p)
	for i := range grad {
		var want float64
		if mask[i] && p[i] > 0 {
			want = coef * p[i] * (math.Log(p[i]) + ent)
		}
		if math.Abs(float64(grad[i])-want) > 1e-7 {
			t.Fatalf("entropy grad[%d] = %v, want %v", i, grad[i], want)
		}
	}
	// scale multiplies everything.
	PolicyGradientRowInto(logits, mask, 1, 1.7, 0, 0.25, probs, grad)
	for i := range want {
		if math.Abs(float64(grad[i])-0.25*float64(want[i])) > 1e-7 {
			t.Fatalf("scaled[%d] = %v, want %v", i, grad[i], 0.25*want[i])
		}
	}
}

func TestEntropyBonusIncreasesEntropy(t *testing.T) {
	logits := []float32{3, 0, 0}
	probs := make([]float64, len(logits))
	grad := make([]float32, len(logits))
	before := entropy(SoftmaxInto(logits, nil, probs))
	for iter := 0; iter < 100; iter++ {
		// advantage=0: pure entropy-bonus gradient.
		PolicyGradientRowInto(logits, nil, 0, 0, 0.1, 1, probs, grad)
		for i := range logits {
			logits[i] -= 0.1 * grad[i]
		}
	}
	after := entropy(SoftmaxInto(logits, nil, probs))
	if after <= before {
		t.Fatalf("entropy %v -> %v did not increase", before, after)
	}
}

func TestClipGrads(t *testing.T) {
	g := [][]float32{{3, 4}} // norm 5
	norm := ClipGrads(g, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	var sq float64
	for _, v := range g[0] {
		sq += float64(v) * float64(v)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-6 {
		t.Fatalf("post-clip norm = %v", math.Sqrt(sq))
	}
	// No-op cases.
	g2 := [][]float32{{0.1}}
	if math.Abs(ClipGrads(g2, 10)-0.1) > 1e-7 {
		t.Fatal("norm wrong")
	}
	if g2[0][0] != 0.1 {
		t.Fatal("clip applied when below max")
	}
	ClipGrads(g2, 0) // maxNorm<=0 is no-op
	if g2[0][0] != 0.1 {
		t.Fatal("clip applied with maxNorm=0")
	}
}

func TestCloneIndependent(t *testing.T) {
	src := rng.New(11)
	net := NewMLP(src, []int{2, 3, 1}, Tanh, Identity)
	c := net.Clone()
	x := []float64{1, 2}
	if net.Forward1(x)[0] != c.Forward1(x)[0] {
		t.Fatal("clone output differs")
	}
	c.Layers[0].W.Data[0] += 1
	if net.Forward1(x)[0] == c.Forward1(x)[0] {
		t.Fatal("clone shares weight storage")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	src := rng.New(13)
	a := NewMLP(src, []int{2, 3, 1}, Tanh, Identity)
	b := NewMLP(src, []int{2, 3, 1}, Tanh, Identity)
	x := []float64{0.3, -0.7}
	if a.Forward1(x)[0] == b.Forward1(x)[0] {
		t.Fatal("fixture: networks should differ")
	}
	b.CopyWeightsFrom(a)
	if a.Forward1(x)[0] != b.Forward1(x)[0] {
		t.Fatal("CopyWeightsFrom did not copy")
	}
}

func TestForwardShapePanic(t *testing.T) {
	src := rng.New(17)
	net := NewMLP(src, []int{3, 2}, Identity, Identity)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input width did not panic")
		}
	}()
	net.Forward(NewMat(1, 5), false)
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	src := rng.New(19)
	net := NewMLP(src, []int{2, 2}, Identity, Identity)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	net.Backward(NewMat(1, 2))
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Single linear layer fitting y = 2x + 1.
	src := rng.New(21)
	net := NewMLP(src, []int{1, 1}, Identity, Identity)
	opt := NewAdam(0.05)
	x := FromSlice(8, 1, []float32{-2, -1.5, -1, -0.5, 0.5, 1, 1.5, 2})
	y := NewMat(8, 1)
	for i := range x.Data {
		y.Data[i] = 2*x.Data[i] + 1
	}
	for epoch := 0; epoch < 500; epoch++ {
		net.ZeroGrad()
		pred := net.Forward(x, true)
		_, grad := MSELoss(pred, y)
		net.Backward(grad)
		opt.Step(net)
	}
	w := float64(net.Layers[0].W.Data[0])
	b := float64(net.Layers[0].B[0])
	if math.Abs(w-2) > 0.05 || math.Abs(b-1) > 0.05 {
		t.Fatalf("fit w=%v b=%v, want 2, 1", w, b)
	}
}
