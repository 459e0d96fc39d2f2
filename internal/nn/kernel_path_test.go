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
	demo  []policy.Transition
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

// TestKernelPathsMatchOnGoldenCMA2C runs real CMA2C work through both
// kernel paths — the AVX GEMM and tanh epilogue, then the same calls with
// the AVX gate forced off — and requires bit-equal results: the golden
// actor's ForwardBatch over every recorded demonstration observation, and
// one actor update step from the golden state (forward, TD targets,
// backward, clipping and Adam), compared as re-serialized checkpoints. Not
// parallel: it flips the package-wide kernel gate.
func TestKernelPathsMatchOnGoldenCMA2C(t *testing.T) {
	if !nn.HaveAVXForTest() {
		t.Skip("no AVX on this CPU or target: there is only the scalar path")
	}
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
	if len(g.demo) < 1000 {
		t.Fatalf("golden demo buffer holds %d observations, want >= 1000", len(g.demo))
	}

	x := nn.NewMat(len(g.demo), g.actor.InputSize())
	for i, tr := range g.demo {
		x.SetRow(i, tr.Obs)
	}
	forward := func() []float32 {
		return append([]float32(nil), g.actor.ForwardBatch(x, 1).Data...)
	}
	vec := forward()
	var scalar []float32
	nn.WithoutAVXForTest(func() { scalar = forward() })
	for i := range scalar {
		if math.Float32bits(vec[i]) != math.Float32bits(scalar[i]) {
			t.Fatalf("actor logit %d (row %d): AVX %v, scalar %v (must be bit-identical)",
				i, i/g.actor.OutputSize(), vec[i], scalar[i])
		}
	}

	idxs := make([]int, cfg.Batch)
	for i := range idxs {
		idxs[i] = (i * 37) % len(g.demo)
	}
	actorStep := func() []byte {
		f := newLearner()
		if _, err := checkpoint.Unmarshal(data, f); err != nil {
			t.Fatal(err)
		}
		f.BenchActorStep(g.demo, idxs)
		out, err := checkpoint.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	vecState := actorStep()
	var scalarState []byte
	nn.WithoutAVXForTest(func() { scalarState = actorStep() })
	if string(vecState) == string(data) {
		t.Fatal("the actor step left the checkpoint unchanged; the comparison below would be vacuous")
	}
	if string(vecState) != string(scalarState) {
		t.Fatal("one CMA2C actor step from the golden state differs between the AVX and scalar kernel paths")
	}
}
