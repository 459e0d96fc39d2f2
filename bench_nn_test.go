package fairmove

// NN-layer benchmark set: the pinned benchmarks behind BENCH_nn.json,
// recording the float32 blocked-GEMM rewrite of internal/nn against the
// float64 per-row engine it replaced. Where BENCH_hotpath.json tracks the
// per-slot simulation path, this file tracks the learning path: batched
// inference and the three batched update steps (CMA2C critic, CMA2C actor,
// DQN minibatch learn) that dominate training time.
//
// The set is pinned like the hot-path set: names are stable identifiers in
// testdata/alloc_floors.json (enforced by TestAllocGate, which gates both
// sets) and in BENCH_nn.json (rewritten by `make bench-record`). The
// "before" column holds the float64-engine numbers measured at the recorded
// baseline commit and is preserved across re-records.

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// nnBenchTransitions builds a deterministic synthetic replay buffer with the
// deployed observation width and full action masks.
func nnBenchTransitions(n int) []policy.Transition {
	src := rng.New(11)
	buf := make([]policy.Transition, n)
	for i := range buf {
		obs := make([]float64, sim.FeatureSize)
		next := make([]float64, sim.FeatureSize)
		for j := range obs {
			obs[j] = src.Uniform(-1, 1)
			next[j] = src.Uniform(-1, 1)
		}
		tr := policy.Transition{
			Obs: obs, NextObs: next,
			Action: src.Intn(sim.NumActions), Reward: src.Uniform(-1, 1),
			Elapsed: 1,
		}
		for j := range tr.Mask {
			tr.Mask[j] = true
		}
		for j := range tr.NextMask {
			tr.NextMask[j] = true
		}
		buf[i] = tr
	}
	return buf
}

// nnBenchSet returns the pinned NN-layer benchmarks. Shapes match the
// deployed networks (FeatureSize→64→64→NumActions and the 1-wide critic);
// update steps run at the configured minibatch size over a 512-transition
// buffer with a fixed sampling pattern.
func nnBenchSet(tb testing.TB) []hotBench {
	return []hotBench{
		{"nn_forward_batch256", func(b *testing.B) {
			m, x := hotBenchNet()
			batch := nn.NewMat(256, sim.FeatureSize)
			for r := 0; r < batch.Rows; r++ {
				batch.SetRow(r, x)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(batch, 1)
			}
		}},
		{"nn_softmax_into", func(b *testing.B) {
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < 256; r++ {
					nn.SoftmaxInto(logits[r*sim.NumActions:(r+1)*sim.NumActions], mask[:], probs)
				}
			}
		}},
		{"cma2c_critic_step", func(b *testing.B) {
			f, buf, idxs := nnBenchFairMove(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.BenchCriticStep(buf, idxs)
			}
		}},
		{"cma2c_actor_step", func(b *testing.B) {
			f, buf, idxs := nnBenchFairMove(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.BenchActorStep(buf, idxs)
			}
		}},
		{"dqn_learn_step", func(b *testing.B) {
			d := policy.NewDQN(0.6, 7)
			for _, tr := range nnBenchTransitions(512) {
				d.BenchRemember(tr)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.BenchLearnStep()
			}
		}},
	}
}

func nnBenchFairMove(b *testing.B) (*core.FairMove, []policy.Transition, []int) {
	cfg := core.DefaultConfig(0.6, 7)
	f, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := nnBenchTransitions(512)
	idxs := make([]int, cfg.Batch)
	for i := range idxs {
		idxs[i] = (i * 37) % len(buf)
	}
	return f, buf, idxs
}

const nnBenchPath = "BENCH_nn.json"

// TestRecordNNBench re-measures the pinned NN-layer set (best ns/op of three
// repetitions, exact allocs/op) and rewrites the "after" column of
// BENCH_nn.json, preserving the recorded float64 baseline in "before".
// Guarded by -recordbench; run at -benchscale=full for the committed file
// (the set itself is scale-independent — shapes are fixed by the deployed
// networks — so the flag only labels the file).
func TestRecordNNBench(t *testing.T) {
	if !*recordBench {
		t.Skip("pass -recordbench (make bench-record) to rewrite BENCH_nn.json")
	}
	prior := map[string]hotpathBenchEntry{}
	out := hotpathBenchFile{Command: "make bench-record", BenchScale: resolveBenchScale(t)}
	if data, err := os.ReadFile(nnBenchPath); err == nil {
		var old hotpathBenchFile
		if err := json.Unmarshal(data, &old); err != nil {
			t.Fatalf("bad %s: %v", nnBenchPath, err)
		}
		out.BaselineCommit = old.BaselineCommit
		for _, e := range old.Entries {
			prior[e.Name] = e
		}
	}
	for _, hb := range nnBenchSet(t) {
		entry := hotpathBenchEntry{Name: hb.name, Before: prior[hb.name].Before}
		var allocs int64
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(hb.run)
			if ns := float64(r.NsPerOp()); best == 0 || ns < best {
				best = ns
			}
			allocs = r.AllocsPerOp()
		}
		entry.After = hotpathBenchCell{NsPerOp: best, AllocsPerOp: allocs}
		if entry.Before.NsPerOp > 0 {
			entry.Speedup = entry.Before.NsPerOp / entry.After.NsPerOp
		}
		t.Logf("%-22s %12.0f ns/op %4d allocs/op (before: %.0f ns/op, %d allocs/op)",
			hb.name, entry.After.NsPerOp, entry.After.AllocsPerOp,
			entry.Before.NsPerOp, entry.Before.AllocsPerOp)
		out.Entries = append(out.Entries, entry)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(nnBenchPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote " + nnBenchPath)
}
