package policy

// Benchmark hooks (see internal/core/benchhooks.go for the pattern): the
// module-root allocation gate pins the DQN minibatch learn step.
// BenchRemember fills the replay buffer and BenchLearnStep runs one
// minibatch update; neither is part of the policy API.

// BenchRemember appends one transition to the replay buffer. Exported only
// for benchmarks.
func (d *DQN) BenchRemember(tr Transition) { d.remember(tr) }

// BenchLearnStep runs one minibatch target/online update. Exported only for
// benchmarks.
func (d *DQN) BenchLearnStep() { d.learn() }
