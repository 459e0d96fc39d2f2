package policy

// Benchmark hooks (see internal/core/benchhooks.go for the pattern): the
// module-root allocation gate pins the DQN minibatch learn step.
// BenchRemember fills the replay buffer and BenchLearnStep runs one
// minibatch update; BenchDecideState (TBA, DQN) and BenchExplore (DQN)
// expose the decide inputs to the decide-identity test. None is part of
// the policy API.

import (
	"repro/internal/nn"
	"repro/internal/rng"
)

// BenchRemember appends one transition to the replay buffer. Exported only
// for benchmarks.
func (d *DQN) BenchRemember(tr *Transition) { d.remember(tr) }

// BenchLearnStep runs one minibatch target/online update. Exported only for
// benchmarks.
func (d *DQN) BenchLearnStep() { d.learn() }

// BenchDecideState returns the actor network and the current episode's
// sampling stream, the inputs of Act's decide. Exported only for the test
// that checks Act against a reference per-taxi decide loop.
func (t *TBA) BenchDecideState() (*nn.MLP, *rng.Source) { return t.net, t.src }

// BenchDecideState returns the Q-network and the current episode's stream,
// the inputs of Act's decide. Exported only for the test that checks Act
// against a reference per-taxi decide loop.
func (d *DQN) BenchDecideState() (*nn.MLP, *rng.Source) { return d.net, d.src }

// BenchExplore makes Act choose as during fine-tuning, with exploration
// rate eps instead of EvalEpsilon. Exported only for the decide-identity
// test.
func (d *DQN) BenchExplore(eps float64) { d.exploring, d.eps = true, eps }
