package nn_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/policy"
)

// goldenCMA2C decodes the committed CMA2C golden checkpoint far enough to
// expose what the kernel-path test needs: the trained actor and the
// demonstration buffer, whose observations were recorded from the
// simulator. Kind and fingerprint come from the embedded learner, so the
// fixture's header is validated exactly as a real load validates it.
type goldenCMA2C struct {
	*core.FairMove
	actor *nn.MLP
	demo  policy.TransitionStore
}

func (g *goldenCMA2C) DecodeCheckpoint(d *checkpoint.Decoder) error {
	d.Int()  // demonstration episodes done
	d.Int()  // training episodes done
	d.Bool() // fine-tuning flag
	var err error
	if g.actor, err = checkpoint.DecodeMLP(d); err != nil {
		return err
	}
	for i := 0; i < 2; i++ { // critic, target critic
		if _, err := checkpoint.DecodeMLP(d); err != nil {
			return err
		}
	}
	for i := 0; i < 2; i++ { // actor and critic optimizers
		if _, err := checkpoint.DecodeAdam(d); err != nil {
			return err
		}
	}
	g.demo, err = policy.DecodeTransitions(d)
	if err != nil {
		return err
	}
	return d.Err()
}

// loadGoldenCMA2C reads the committed CMA2C golden checkpoint and returns
// its bytes, the decoded actor and demonstrations, and a constructor for
// fresh learners with the fixture's hyperparameters.
func loadGoldenCMA2C(t *testing.T) ([]byte, *goldenCMA2C, core.Config, func() *core.FairMove) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "checkpoints", "cma2c.fmck"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(0.6, 42) // the fixture's hyperparameters
	newLearner := func() *core.FairMove {
		f, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	g := &goldenCMA2C{FairMove: newLearner()}
	if _, err := checkpoint.Unmarshal(data, g); err != nil {
		t.Fatal(err)
	}
	if g.demo.Len() < 1000 {
		t.Fatalf("golden demo buffer holds %d observations, want >= 1000", g.demo.Len())
	}
	return data, g, cfg, newLearner
}

// demoLogits runs the golden actor over every recorded demonstration
// observation and returns a copy of the logits, one row per observation.
func (g *goldenCMA2C) demoLogits() []float32 {
	all := make([]int, g.demo.Len())
	for i := range all {
		all[i] = i
	}
	x := g.demo.GatherObs(nil, all)
	return append([]float32(nil), g.actor.ForwardBatch(x, 1).Data...)
}

// TestKernelPathsMatchOnGoldenCMA2C runs real CMA2C work through every
// kernel tier the host has — the 16-lane AVX-512 GEMM panel and exp kernel,
// the 8-lane AVX panel and tanh epilogue, and the scalar loops — and
// requires bit-equal results: the golden actor's ForwardBatch over every
// recorded demonstration observation, and one actor update step from the
// golden state (forward, softmax, TD targets, backward, clipping and Adam),
// compared as re-serialized checkpoints. Not parallel: it flips the
// package-wide kernel gates.
func TestKernelPathsMatchOnGoldenCMA2C(t *testing.T) {
	tiers := nn.KernelTiersForTest()
	if len(tiers) == 1 {
		t.Skip("no AVX on this CPU or target: there is only the scalar path")
	}
	data, g, cfg, newLearner := loadGoldenCMA2C(t)
	idxs := make([]int, cfg.Batch)
	for i := range idxs {
		idxs[i] = (i * 37) % g.demo.Len()
	}
	actorStep := func() []byte {
		f := newLearner()
		if _, err := checkpoint.Unmarshal(data, f); err != nil {
			t.Fatal(err)
		}
		f.BenchActorStep(&g.demo, idxs)
		out, err := checkpoint.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	var scalar []float32
	var scalarState []byte
	nn.WithKernelTierForTest("scalar", func() { scalar, scalarState = g.demoLogits(), actorStep() })
	if string(scalarState) == string(data) {
		t.Fatal("the actor step left the checkpoint unchanged; the comparison below would be vacuous")
	}
	for _, tier := range tiers[:len(tiers)-1] {
		var vec []float32
		var vecState []byte
		nn.WithKernelTierForTest(tier, func() { vec, vecState = g.demoLogits(), actorStep() })
		for i := range scalar {
			if math.Float32bits(vec[i]) != math.Float32bits(scalar[i]) {
				t.Fatalf("actor logit %d (row %d): %s %v, scalar %v (must be bit-identical)",
					i, i/g.actor.OutputSize(), tier, vec[i], scalar[i])
			}
		}
		if string(vecState) != string(scalarState) {
			t.Fatalf("one CMA2C actor step from the golden state differs between the %s and scalar kernel tiers", tier)
		}
	}
}

// TestSoftmaxVectorMatchesScalarOnGoldenLogits runs SoftmaxInto on every
// golden-demonstration logit row under the row's recorded action mask at
// every tier, and requires the float64 probabilities bit-equal to the
// scalar tier's (math.Exp). At least one row must have every valid
// argument in the exp kernel's range, so the vector path really ran.
func TestSoftmaxVectorMatchesScalarOnGoldenLogits(t *testing.T) {
	tiers := nn.KernelTiersForTest()
	if tiers[0] != "avx512" {
		t.Skip("no AVX-512 on this CPU or target: SoftmaxInto has only the scalar exp")
	}
	_, g, _, _ := loadGoldenCMA2C(t)
	logits := g.demoLogits()
	width := g.actor.OutputSize()
	softmaxAll := func() []float64 {
		out := make([]float64, len(logits))
		for r := range g.demo.Len() {
			row, tr := r*width, g.demo.At(r)
			nn.SoftmaxInto(logits[row:row+width], tr.Mask[:], out[row:row+width])
		}
		return out
	}
	var want []float64
	nn.WithKernelTierForTest("scalar", func() { want = softmaxAll() })
	inRange := 0
	for r := range g.demo.Len() {
		tr := g.demo.At(r)
		row := logits[r*width : (r+1)*width]
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, l := range row {
			if tr.Mask[i] {
				lo, hi = math.Min(lo, float64(l)), math.Max(hi, float64(l))
			}
		}
		if lo-hi >= -700 {
			inRange++
		}
	}
	if inRange == 0 {
		t.Fatal("no golden logit row reaches the exp kernel; the comparison would be vacuous")
	}
	for _, tier := range tiers[:len(tiers)-1] {
		var got []float64
		nn.WithKernelTierForTest(tier, func() { got = softmaxAll() })
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("probability %d (row %d): %s %v, scalar %v (must be bit-identical)",
					i, i/width, tier, got[i], want[i])
			}
		}
	}
}
