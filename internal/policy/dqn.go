package policy

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DQN is the Deep Q-Network baseline [23]: a single network shared by all
// agents maps the observation to one Q-value per displacement action and is
// trained by minimizing the TD loss against a periodically updated target
// network, with experience replay and an ε-greedy behavior policy. The
// reward is the same Eq. 5 blend as FairMove.
type DQN struct {
	Alpha   float64 // reward blend α
	Gamma   float64 // discount β
	Epsilon float64 // initial exploration
	MinEps  float64
	Hidden  []int // hidden layer widths
	LR      float64
	Batch   int
	Buffer  int // replay capacity
	// TargetEvery is the number of gradient steps between target updates.
	TargetEvery int
	// CQLAlpha weights a conservative penalty that pushes down the Q-values
	// of actions absent from the replay data while raising the taken
	// action's. Without it, actions never tried in the demonstrations keep
	// their random initialization and the greedy policy exploits them —
	// the standard offline-RL overestimation failure.
	CQLAlpha float64
	// Shards is the simulator's shard count for training environments
	// (sim.Options.Shards). Any value produces byte-identical results — it
	// only changes wall-clock.
	Shards int

	// Workers bounds the goroutines used for batched Q-network inference
	// and parallel demonstration rollouts; <= 0 means GOMAXPROCS. Any value
	// produces byte-identical results — it only changes wall-clock.
	Workers int

	// EvalEpsilon adds a small random-valid-action rate at evaluation time.
	// A deterministic argmax executed simultaneously by every agent in a
	// region herds them onto one station; a little jitter restores the
	// dispersion a centralized dispatcher would impose.
	EvalEpsilon float64

	net    *nn.MLP
	target *nn.MLP
	opt    *nn.Adam
	replay TransitionStore // ring of capacity Buffer
	src    *rng.Source
	steps  int

	// learn scratch, reused call to call (shapes are fixed by Batch and
	// the observation/action widths, so steady-state training allocates
	// nothing here). lx and lxn hold the minibatch observations and
	// next-observations, the latter for the batched target-network pass.
	// Never serialized.
	lx    *nn.Mat
	lxn   *nn.Mat
	lgrad *nn.Mat
	lidx  []int

	// dec runs Act's decide and owns its scratch.
	dec Decider

	// exploring is on only inside a fine-tune episode: Act then chooses
	// ε-greedily at the scheduled rate eps instead of EvalEpsilon.
	exploring bool
	eps       float64

	Progress

	tel TrainTel
}

// SetTelemetry installs (or, with nil, removes) training telemetry under the
// "dqn." prefix, and Act's policy.decide.* timers.
func (d *DQN) SetTelemetry(r *telemetry.Registry) {
	d.tel = NewTrainTel(r, "dqn")
	d.dec.SetTelemetry(r)
}

// NewDQN returns an untrained DQN with the paper's optimizer settings
// (Adam, lr 0.001) at a batch size scaled to the repro fleet.
func NewDQN(alpha float64, seed int64) *DQN {
	d := &DQN{
		Alpha:       alpha,
		Gamma:       0.9,
		Epsilon:     0.15,
		MinEps:      0.05,
		Hidden:      []int{64, 64},
		LR:          0.001,
		Batch:       64,
		Buffer:      50000,
		TargetEvery: 200,
		EvalEpsilon: 0.03,
		CQLAlpha:    0.3,
		src:         rng.SplitStable(seed, "dqn-init"),
	}
	sizes := append([]int{sim.FeatureSize}, d.Hidden...)
	sizes = append(sizes, sim.NumActions)
	d.net = nn.NewMLP(d.src, sizes, nn.ReLU, nn.Identity)
	d.target = d.net.Clone()
	d.opt = nn.NewAdam(d.LR)
	d.replay = NewTransitionRing(d.Buffer)
	d.eps = d.Epsilon
	return d
}

// Name implements Policy.
func (d *DQN) Name() string { return "DQN" }

// BeginEpisode implements Policy.
func (d *DQN) BeginEpisode(seed int64) { d.src = rng.SplitStable(seed, "dqn") }

// maskedArgmax returns the valid action with the highest Q in a float32
// Q-row, or (0, 0) when no action is valid.
func maskedArgmax(qs []float32, mask [sim.NumActions]bool) (int, float64) {
	best, bestQ := -1, math.Inf(-1)
	for i := 0; i < sim.NumActions; i++ {
		if mask[i] && float64(qs[i]) > bestQ {
			best, bestQ = i, float64(qs[i])
		}
	}
	if best < 0 {
		return 0, 0
	}
	return best, bestQ
}

// epsGreedy is DQN's ε-greedy choice given an evaluated Q-row's masked
// argmax, greedy: with probability eps a uniformly random valid action,
// otherwise greedy. The ε draw always comes first. The random action is the
// Intn(count)-th valid one, counted and walked to in place: the draws of
// collecting the valid actions and indexing them, without the slice.
func epsGreedy(src *rng.Source, greedy int, mask [sim.NumActions]bool, eps float64) int {
	if src.Bool(eps) {
		valid := 0
		for _, ok := range mask {
			if ok {
				valid++
			}
		}
		if valid == 0 {
			return 0
		}
		k := src.Intn(valid)
		for i, ok := range mask {
			if ok {
				if k == 0 {
					return i
				}
				k--
			}
		}
	}
	return greedy
}

// Act implements Policy (ε-greedy over the learned network) through the
// decide FairMove and TBA share (Decider): one fan-out observes the vacant
// taxis and evaluates the shared network on them, sharded across Workers,
// and the ε-greedy choices then consume d.src serially in vacant order —
// the same draw sequence as a per-taxi loop, so output is byte-identical
// for any worker count.
func (d *DQN) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	eps := d.EvalEpsilon
	if d.exploring {
		eps = d.eps
	}
	return d.dec.ActEpsGreedy(env, d.net, d.src, vacant, d.Workers, eps)
}

// remember stores a transition in the replay ring, over the oldest once
// the ring is full.
func (d *DQN) remember(tr *Transition) {
	d.tel.Transitions.Inc()
	d.replay.Add(tr)
}

// learn samples a minibatch and takes one TD step:
// L(θ) = E[(Q(s,a;θ) − y)²], y = r + β^elapsed · max_a' Q̂(s',a').
func (d *DQN) learn() {
	n := d.replay.Len()
	if n < d.Batch {
		return
	}
	d.net.ZeroGrad()
	if d.lgrad == nil {
		d.lgrad = nn.NewMat(d.Batch, sim.NumActions)
		d.lidx = make([]int, d.Batch)
	}
	grad, idxs := d.lgrad, d.lidx
	// grad is sparse and must start from zero. Terminal transitions
	// bootstrap zero: their next rows are stored as zeros and the target
	// row is discarded, so the batch shape stays fixed.
	for i := range grad.Data {
		grad.Data[i] = 0
	}
	for b := range idxs {
		idxs[b] = d.src.Intn(n)
	}
	d.lx = d.replay.GatherObs(d.lx, idxs)
	d.lxn = d.replay.GatherNext(d.lxn, idxs)
	// Online prediction and target evaluation are each one batched GEMM pass
	// per layer instead of per-sample loops.
	pred := d.net.Forward(d.lx, true)
	nextQ := d.target.ForwardBatch(d.lxn, 1)
	for b, i := range idxs {
		tr := d.replay.At(i)
		y := tr.Reward
		if !tr.Terminal {
			_, nq := maskedArgmax(nextQ.Row(b), tr.NextMask)
			y += math.Pow(d.Gamma, float64(tr.Elapsed)) * nq
		}
		// Gradient only on the taken action's output.
		diff := pred.At(b, tr.Action) - y
		grad.Set(b, tr.Action, 2*diff/float64(d.Batch))
		// Conservative penalty (CQL-lite): lift the taken action relative
		// to every other valid action.
		if d.CQLAlpha > 0 {
			var valid int
			for j := 0; j < sim.NumActions; j++ {
				if tr.Mask[j] {
					valid++
				}
			}
			if valid > 1 {
				for j := 0; j < sim.NumActions; j++ {
					if tr.Mask[j] && j != tr.Action {
						grad.Set(b, j, grad.At(b, j)+d.CQLAlpha/float64(valid-1)/float64(d.Batch))
					}
				}
				grad.Set(b, tr.Action, grad.At(b, tr.Action)-d.CQLAlpha/float64(d.Batch))
			}
		}
	}
	d.net.Backward(grad)
	params, grads := d.net.Params()
	_ = params
	d.tel.GradNorm.Observe(nn.ClipGrads(grads, 5))
	d.tel.Steps.Inc()
	d.opt.Step(d.net)

	d.steps++
	if d.steps%d.TargetEvery == 0 {
		d.target.CopyWeightsFrom(d.net)
	}
}

// Training implements Learner. Pretrain seeds the replay buffer with the
// demonstration episodes and runs offline Q-learning sweeps over it — a warm
// start before on-policy Train. Q-learning is off-policy, so learning from
// the teacher's trajectories is sound and lets the network start from
// competent behavior instead of random queue-flooding exploration.
func (d *DQN) Training() Training {
	return Training{
		Shards: d.Shards, Workers: d.Workers, Alpha: d.Alpha, Gamma: d.Gamma, Tel: d.tel,
		LearnDemo: d.learnDemo,
		Episode:   d.trainEpisode,
	}
}

// learnDemo stores one demonstration episode in the replay buffer and
// sweeps the buffer offline.
func (d *DQN) learnDemo(buf *TransitionStore) {
	for i := range buf.Len() {
		tr := buf.At(i)
		d.remember(&tr)
	}
	steps := d.replay.Len() / d.Batch
	for s := 0; s < steps; s++ {
		d.learn()
	}
}

// trainEpisode runs fine-tune episode ep of episodes with replay learning.
// ε decays linearly across all the episodes.
func (d *DQN) trainEpisode(env sim.Environment, ep, episodes int, _ *TrainStats) float64 {
	if episodes > 1 {
		frac := float64(ep) / float64(episodes-1)
		d.eps = d.Epsilon + (d.MinEps-d.Epsilon)*frac
	}
	// Per-taxi Acts: a learn step inside the callback moves the weights
	// that every later taxi of the same slot decides with.
	const learnEvery = 4
	nSeen := 0
	d.exploring = true
	mean := RunEpisode(env, d, true, d.Alpha, d.Gamma, func(id int, tr *Transition) {
		if tr == nil {
			return
		}
		d.remember(tr)
		nSeen++
		if nSeen%learnEvery == 0 {
			d.learn()
		}
	})
	d.exploring = false
	d.tel.Epsilon.Set(d.eps)
	return mean
}
