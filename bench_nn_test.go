package fairmove

// NN-layer benchmark set. Where the hot-path set tracks the per-slot
// simulation path, this file tracks the learning path: batched inference,
// the decide loop's softmax, and the three batched update steps (CMA2C
// critic, CMA2C actor, DQN minibatch learn) that dominate training time.
//
// The set is pinned like the hot-path set: names are stable identifiers in
// testdata/alloc_floors.json, enforced by TestAllocGate, which gates both
// sets.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// nnBenchTransitions builds a deterministic synthetic replay buffer with the
// deployed observation width and full action masks.
func nnBenchTransitions(n int) *policy.TransitionStore {
	src := rng.New(11)
	var buf policy.TransitionStore
	var obs, next [sim.FeatureSize]float32
	for i := 0; i < n; i++ {
		for j := range obs {
			obs[j] = float32(src.Uniform(-1, 1))
			next[j] = float32(src.Uniform(-1, 1))
		}
		tr := policy.Transition{
			Obs: obs[:], NextObs: next[:],
			Action: src.Intn(sim.NumActions), Reward: src.Uniform(-1, 1),
			Elapsed: 1,
		}
		for j := range tr.Mask {
			tr.Mask[j] = true
		}
		for j := range tr.NextMask {
			tr.NextMask[j] = true
		}
		buf.Add(&tr)
	}
	return &buf
}

// nnBenchSet returns the pinned NN-layer benchmarks. Shapes match the
// deployed networks (FeatureSize→64→64→NumActions and the 1-wide critic);
// update steps run at the configured minibatch size over a 512-transition
// buffer with a fixed sampling pattern. Each operation runs once in setup,
// which sizes its arenas and scratch.
func nnBenchSet() []hotBench {
	return []hotBench{
		{"nn_forward_batch256", func(testing.TB) func() {
			m, x := hotBenchNet()
			batch := nn.NewMat(256, sim.FeatureSize)
			for r := 0; r < batch.Rows; r++ {
				batch.SetRow(r, x)
			}
			return warmOnce(func() { m.ForwardBatch(batch, 1) })
		}},
		{"nn_forward_tiles", func(testing.TB) func() {
			// The decide's hooked fan-out: two worker blocks of three
			// 512-row tiles each, the hooks built once like the Decider's.
			m, x := hotBenchNet()
			const n = 2 * 3 * 512
			var in [sim.FeatureSize]float32
			for j, v := range x {
				in[j] = float32(v)
			}
			var sums [2]float32
			pre := func(_, lo, hi int, tile *nn.Mat) {
				for r := 0; r < hi-lo; r++ {
					copy(tile.Row(r), in[:])
				}
			}
			post := func(block, lo, hi int, out *nn.Mat) { sums[block] += out.Data[0] }
			// The warm-up sizes the tiles and starts the helpers.
			return warmOnce(func() { m.ForwardBlocks(n, 2, pre, post) })
		}},
		{"nn_softmax_into", func(testing.TB) func() {
			// The decide loop's per-taxi softmax: 256 action-width logit
			// rows, some actions masked, into one fixed probability buffer.
			src := rng.New(5)
			logits := make([]float32, 256*sim.NumActions)
			for i := range logits {
				logits[i] = float32(src.Uniform(-4, 4))
			}
			var mask [sim.NumActions]bool
			for i := range mask {
				mask[i] = i%5 != 3
			}
			probs := make([]float64, sim.NumActions)
			return warmOnce(func() {
				for r := 0; r < 256; r++ {
					nn.SoftmaxInto(logits[r*sim.NumActions:(r+1)*sim.NumActions], mask[:], probs)
				}
			})
		}},
		{"cma2c_critic_step", func(tb testing.TB) func() {
			f, buf, idxs := nnBenchFairMove(tb)
			return warmOnce(func() { f.BenchCriticStep(buf, idxs) })
		}},
		{"cma2c_actor_step", func(tb testing.TB) func() {
			f, buf, idxs := nnBenchFairMove(tb)
			return warmOnce(func() { f.BenchActorStep(buf, idxs) })
		}},
		{"dqn_learn_step", func(testing.TB) func() {
			d := policy.NewDQN(0.6, 7)
			buf := nnBenchTransitions(512)
			for i := range buf.Len() {
				tr := buf.At(i)
				d.BenchRemember(&tr)
			}
			return warmOnce(d.BenchLearnStep)
		}},
	}
}

func nnBenchFairMove(tb testing.TB) (*core.FairMove, *policy.TransitionStore, []int) {
	cfg := core.DefaultConfig(0.6, 7)
	f, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	buf := nnBenchTransitions(512)
	idxs := make([]int, cfg.Batch)
	for i := range idxs {
		idxs[i] = (i * 37) % buf.Len()
	}
	return f, buf, idxs
}
