// Package core implements the paper's contribution: the FairMove
// displacement system built on a Centralized Multi-Agent Actor-Critic
// (CMA2C, Section III-D). One shared policy network (actor) and one shared
// value network (critic) serve every e-taxi agent; the critic is trained on
// the Bellman loss against a target network (Eq. 6-7) and the actor follows
// advantage-weighted policy gradients where the advantage is the TD error
// (Eq. 8-11, Algorithm 1). The reward blends profit efficiency and profit
// fairness with the weight α (Eq. 4-5).
package core

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config holds the CMA2C hyperparameters. Defaults follow Section IV-A:
// Adam with learning rate 0.001 and discount β = 0.9; the weight α = 0.6 is
// the value the sensitivity study (Table IV) selects.
type Config struct {
	Alpha       float64 // efficiency/fairness blend α ∈ [0, 1]
	Gamma       float64 // discount β
	ActorLR     float64
	CriticLR    float64
	Hidden      []int   // hidden widths for both networks
	EntropyCoef float64 // exploration bonus on the actor
	Batch       int     // minibatch size for the M update iterations
	UpdateIters int     // M of Algorithm 1
	Seed        int64
	// Workers bounds the goroutines used for batched actor inference and
	// parallel demonstration rollouts; <= 0 means GOMAXPROCS. Any value
	// produces byte-identical results — it only changes wall-clock.
	Workers int
	// Shards is the simulator's shard count for training environments
	// (sim.Options.Shards). Like Workers it only changes wall-clock.
	Shards int
}

// DefaultConfig returns the paper's hyperparameters at repro scale.
func DefaultConfig(alpha float64, seed int64) Config {
	return Config{
		Alpha:       alpha,
		Gamma:       0.9,
		ActorLR:     0.001,
		CriticLR:    0.001,
		Hidden:      []int{64, 64},
		EntropyCoef: 0.002,
		Batch:       64,
		UpdateIters: 300,
		Seed:        seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha must be in [0,1], got %v", c.Alpha)
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("core: gamma must be in [0,1), got %v", c.Gamma)
	}
	if c.ActorLR <= 0 || c.CriticLR <= 0 {
		return fmt.Errorf("core: learning rates must be positive")
	}
	if c.Batch <= 0 || c.UpdateIters <= 0 {
		return fmt.Errorf("core: batch and update iterations must be positive")
	}
	return nil
}

// FairMove is the trained displacement system. It implements
// policy.Policy, so it is evaluated exactly like the baselines.
type FairMove struct {
	cfg Config

	actor        *nn.MLP
	critic       *nn.MLP
	targetCritic *nn.MLP
	actorOpt     *nn.Adam
	criticOpt    *nn.Adam

	src *rng.Source

	// demo holds demonstration transitions from Pretrain; Train replays
	// behavior-cloning batches from it between policy-gradient updates to
	// anchor the actor against collapse (in the spirit of DQfD).
	demo policy.TransitionStore

	// fineTuning records that Train already swapped in the gentler actor
	// optimizer, so a resumed run keeps its saved optimizer state.
	fineTuning bool

	policy.Progress

	// Update-step scratch (DESIGN.md §9): batch matrices and per-row softmax
	// buffers owned by the learner and reused across minibatch updates, so
	// the steady-state critic/actor steps allocate nothing. upX/upXN hold the
	// sampled observations and next-observations, upY the TD targets, upGrad
	// the policy-gradient rows, upMSE the critic loss gradient. Never
	// serialized; checkpoints see only networks and optimizers.
	upX, upXN, upY *nn.Mat
	upGrad, upMSE  *nn.Mat
	upAdvs         []float64
	upProbs        []float64

	// dec runs Act's sampled decide and owns its scratch.
	dec policy.Decider

	tel coreTel
}

// New creates an untrained FairMove system.
func New(cfg Config) (*FairMove, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64, 64}
	}
	src := rng.SplitStable(cfg.Seed, "cma2c-init")
	actorSizes := append([]int{sim.FeatureSize}, cfg.Hidden...)
	actorSizes = append(actorSizes, sim.NumActions)
	criticSizes := append([]int{sim.FeatureSize}, cfg.Hidden...)
	criticSizes = append(criticSizes, 1)
	f := &FairMove{
		cfg:       cfg,
		actor:     nn.NewMLP(src, actorSizes, nn.Tanh, nn.Identity),
		critic:    nn.NewMLP(src, criticSizes, nn.Tanh, nn.Identity),
		actorOpt:  nn.NewAdam(cfg.ActorLR),
		criticOpt: nn.NewAdam(cfg.CriticLR),
		src:       src,
	}
	f.targetCritic = f.critic.Clone()
	return f, nil
}

// Name implements policy.Policy.
func (f *FairMove) Name() string { return "FairMove" }

// BeginEpisode implements policy.Policy.
func (f *FairMove) BeginEpisode(seed int64) { f.src = rng.SplitStable(seed, "cma2c") }

// Act implements policy.Policy: centralized training, decentralized
// execution — each agent queries the shared actor on its own observation.
// Actions are sampled from the stochastic policy at evaluation time too:
// agents in the same region share an observation, so a deterministic argmax
// would send them all to the same station or neighbor (herding), while
// sampling from π disperses them — the intended behavior of executing a
// learned stochastic policy. Training rollouts run through Act as well (see
// trainEpisode).
//
// The slot runs as one fan-out across Workers — observe, forward and
// softmax per contiguous block of vacant taxis — and one serial pass that
// draws from f.src in vacant order, the same draw sequence as a per-taxi
// loop (policy.Decider).
func (f *FairMove) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	return f.dec.Act(env, f.actor, f.src, vacant, f.cfg.Workers)
}

// Training implements policy.Learner. Pretrain warm-starts the system from
// the guide's demonstration episodes (typically ground-truth driver
// behavior): the critic learns V by TD regression on the demonstration
// transitions, and the actor is behavior-cloned toward the demonstrated
// actions (cross-entropy = policy gradient with unit advantage). RL
// fine-tuning in Train (Algorithm 1) then improves on the demonstrated
// behavior rather than exploring from scratch — without it, random
// multi-agent exploration floods charging stations for many episodes before
// any signal emerges.
func (f *FairMove) Training() policy.Training {
	return policy.Training{
		Shards: f.cfg.Shards, Workers: f.cfg.Workers, Alpha: f.cfg.Alpha, Gamma: f.cfg.Gamma, Tel: f.tel.TrainTel,
		StartPhase: f.startPhase,
		LearnDemo:  f.learnDemo,
		Episode:    f.trainEpisode,
	}
}

// startPhase sets the phase gauge and, when fine-tuning follows a warm
// start, makes it polish rather than re-learn: the actor steps an order of
// magnitude smaller so the noisy semi-MDP advantages adjust the
// demonstrated policy instead of overwriting it. The fineTuning flag
// survives checkpoints, so a resumed run keeps polishing with its saved
// optimizer state instead of resetting the moments a second time.
func (f *FairMove) startPhase(phase int) {
	f.tel.phase.Set(float64(phase))
	if phase != checkpoint.PhaseTrain {
		return
	}
	if f.demo.Len() > 0 && !f.fineTuning {
		f.actorOpt = nn.NewAdam(f.cfg.ActorLR * 0.1)
	}
	f.fineTuning = true
}

// learnDemo takes the warm start's critic and cloning steps on one
// demonstration episode and keeps it for Train's anchor batches.
func (f *FairMove) learnDemo(buf *policy.TransitionStore) {
	f.tel.demoEpisodes.Inc()
	f.tel.Transitions.Add(int64(buf.Len()))
	if buf.Len() == 0 {
		return
	}
	batch := min(f.cfg.Batch, buf.Len())
	iters := buf.Len() / batch * 2
	idxs := make([]int, batch)
	for it := 0; it < iters; it++ {
		for b := range idxs {
			idxs[b] = f.src.Intn(buf.Len())
		}
		f.loadBatch(buf, idxs)
		f.updateCritic()
		f.cloneActor(buf, idxs)
	}
	f.targetCritic.CopyWeightsFrom(f.critic)
	f.demo.Extend(buf)
}

// trainEpisode is one episode of Algorithm 1.
func (f *FairMove) trainEpisode(env sim.Environment, _, _ int, stats *policy.TrainStats) float64 {
	// Lines 3-7: roll out the joint policy, storing the transitions of all
	// active e-taxis. Each slot runs one batched Act, which samples in
	// vacant order from f.src — the same draws a per-taxi loop would make,
	// because the transition callback only buffers and never touches the
	// networks or f.src.
	var buf policy.TransitionStore
	mean := policy.RunEpisode(env, f, false, f.cfg.Alpha, f.cfg.Gamma, func(id int, tr *policy.Transition) {
		if tr != nil {
			buf.Add(tr)
		}
	})
	stats.Transitions += buf.Len()
	f.tel.Transitions.Add(int64(buf.Len()))
	if buf.Len() == 0 {
		stats.CriticLoss = append(stats.CriticLoss, 0)
		return mean
	}

	// Lines 8-10: M iterations of minibatch updates.
	var lossSum, advSum float64
	batch := min(f.cfg.Batch, buf.Len())
	idxs := make([]int, batch)
	for it := 0; it < f.cfg.UpdateIters; it++ {
		for b := range idxs {
			idxs[b] = f.src.Intn(buf.Len())
		}
		// Critic step, then actor step on the same minibatch: the actor's
		// baseline comes from the just-updated critic, and the TD targets
		// (from the per-episode target network) are shared.
		f.loadBatch(&buf, idxs)
		lossSum += f.updateCritic()
		advSum += f.updateActor(&buf, idxs)
		// Demonstration anchor: every few policy-gradient steps, one
		// behavior-cloning step on Pretrain data keeps the actor from
		// drifting into degenerate corners of the action space while the
		// advantage estimates are still noisy.
		if f.demo.Len() >= batch && it%2 == 1 {
			for b := range idxs {
				idxs[b] = f.src.Intn(f.demo.Len())
			}
			f.upX = f.demo.GatherObs(f.upX, idxs)
			f.cloneActor(&f.demo, idxs)
		}
	}
	n := float64(f.cfg.UpdateIters)
	stats.CriticLoss = append(stats.CriticLoss, lossSum/n)
	f.tel.criticLoss.Set(lossSum / n)
	f.tel.meanAdvAbs.Set(advSum / n)

	// Target network hard update per episode (Eq. 7's θv').
	f.targetCritic.CopyWeightsFrom(f.critic)
	return mean
}

// loadBatch loads one update minibatch: the observations into upX and
// their TD targets into upY. The targets read only the target critic,
// which changes once per episode, so one load serves a critic step and the
// actor step after it.
func (f *FairMove) loadBatch(buf *policy.TransitionStore, idxs []int) {
	f.upX = buf.GatherObs(f.upX, idxs)
	f.upY = nn.EnsureMat(f.upY, len(idxs), 1)
	f.tdTargetsInto(buf, idxs, f.upY)
}

// cloneActor takes one behavior-cloning step toward the demonstrated
// actions of the minibatch whose observations upX holds for the same idxs:
// one batched forward, fused per-row gradients, one batched backward.
func (f *FairMove) cloneActor(buf *policy.TransitionStore, idxs []int) {
	n := len(idxs)
	f.actor.ZeroGrad()
	logits := f.actor.Forward(f.upX, true)
	f.upGrad = nn.EnsureMat(f.upGrad, n, sim.NumActions)
	if f.upProbs == nil {
		f.upProbs = make([]float64, sim.NumActions)
	}
	inv := 1 / float64(n)
	for b, i := range idxs {
		tr := buf.At(i)
		nn.PolicyGradientRowInto(logits.Row(b), tr.Mask[:], tr.Action, 1.0, 0, inv, f.upProbs, f.upGrad.Row(b))
	}
	f.actor.Backward(f.upGrad)
	_, grads := f.actor.Params()
	f.tel.actorGrad.Observe(nn.ClipGrads(grads, 5))
	f.tel.cloneSteps.Inc()
	f.actorOpt.Step(f.actor)
}

// tdTargetsInto fills y (n×1) with r + β^elapsed · V'(s') for the sampled
// transitions, evaluating the target critic on every next-state in one
// batched pass. Terminal rows bootstrap zero: their next rows are stored as
// zeros and the output is discarded, so the batch shape stays fixed.
func (f *FairMove) tdTargetsInto(buf *policy.TransitionStore, idxs []int, y *nn.Mat) {
	f.upXN = buf.GatherNext(f.upXN, idxs)
	next := f.targetCritic.ForwardBatch(f.upXN, 1)
	for b, i := range idxs {
		tr := buf.At(i)
		t := tr.Reward
		if !tr.Terminal {
			t += math.Pow(f.cfg.Gamma, float64(tr.Elapsed)) * next.At(b, 0)
		}
		y.Set(b, 0, t)
	}
}

// updateCritic takes one minibatch step on L(θv) = (V(s) − y)² (Eq. 6)
// over the batch loadBatch loaded, and returns the batch loss. The
// prediction and backprop each run as one batched GEMM over learner-owned
// scratch.
func (f *FairMove) updateCritic() float64 {
	f.critic.ZeroGrad()
	pred := f.critic.Forward(f.upX, true)
	loss, grad := nn.MSELossInto(pred, f.upY, f.upMSE)
	f.upMSE = grad
	f.critic.Backward(grad)
	_, grads := f.critic.Params()
	f.tel.criticGrad.Observe(nn.ClipGrads(grads, 5))
	f.tel.criticSteps.Inc()
	f.criticOpt.Step(f.critic)
	return loss
}

// updateActor takes one minibatch policy-gradient step with the TD-error
// advantage (Eq. 8-11) plus an entropy bonus, and returns the mean |A|.
// Advantages are standardized within the batch and clipped — without this,
// the noisy semi-MDP advantages random-walk the logits of rarely compared
// actions (the five station ranks) until the softmax saturates on an
// arbitrary one. It runs on the batch loadBatch loaded for the same idxs.
func (f *FairMove) updateActor(buf *policy.TransitionStore, idxs []int) float64 {
	n := len(idxs)
	f.actor.ZeroGrad()
	logits := f.actor.Forward(f.upX, true)

	// Advantage = TD target − batched critic value over the same
	// observation batch.
	vals := f.critic.ForwardBatch(f.upX, 1)
	if cap(f.upAdvs) < n {
		f.upAdvs = make([]float64, n)
	}
	advs := f.upAdvs[:n]
	var mean float64
	for b := range idxs {
		advs[b] = f.upY.At(b, 0) - vals.At(b, 0)
		mean += advs[b]
	}
	mean /= float64(n)
	var variance float64
	for _, a := range advs {
		variance += (a - mean) * (a - mean)
	}
	std := math.Sqrt(variance/float64(n)) + 1e-6
	var advAbs float64
	for b := range advs {
		advAbs += math.Abs(advs[b])
		advs[b] = (advs[b] - mean) / std
		if advs[b] > 3 {
			advs[b] = 3
		}
		if advs[b] < -3 {
			advs[b] = -3
		}
	}

	f.upGrad = nn.EnsureMat(f.upGrad, n, sim.NumActions)
	if f.upProbs == nil {
		f.upProbs = make([]float64, sim.NumActions)
	}
	inv := 1 / float64(n)
	for b, i := range idxs {
		tr := buf.At(i)
		nn.PolicyGradientRowInto(logits.Row(b), tr.Mask[:], tr.Action, advs[b], f.cfg.EntropyCoef, inv, f.upProbs, f.upGrad.Row(b))
	}
	f.actor.Backward(f.upGrad)
	_, grads := f.actor.Params()
	f.tel.actorGrad.Observe(nn.ClipGrads(grads, 5))
	f.tel.actorSteps.Inc()
	f.tel.advStd.Set(std)
	f.actorOpt.Step(f.actor)
	return advAbs / float64(n)
}
