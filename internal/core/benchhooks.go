package core

import "repro/internal/policy"

// Benchmark hooks. The module-root allocation gate (bench_nn_test.go) pins
// the allocations of one batched CMA2C update step, but the update steps are
// deliberately unexported — outside the Train loop's replay sampling they
// have no meaning. These wrappers expose exactly one step over a
// caller-built transition buffer for that gate and nothing else; they are
// not part of the training API.

// BenchCriticStep runs one batched critic update over buf at the sampled
// minibatch indices, loading the batch and its TD targets first. Exported
// only for benchmarks.
func (f *FairMove) BenchCriticStep(buf []policy.Transition, idxs []int) {
	f.loadBatch(buf, idxs)
	f.updateCritic()
}

// BenchActorStep runs one batched actor update over buf at the sampled
// minibatch indices, loading the batch and computing its own TD targets
// first. Exported only for benchmarks.
func (f *FairMove) BenchActorStep(buf []policy.Transition, idxs []int) {
	f.loadBatch(buf, idxs)
	f.updateActor(buf, idxs)
}
