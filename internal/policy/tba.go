package policy

import (
	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TBA is the Trip Bandit Approach of the SIGSPATIAL Cup 2019 [6]: a
// reinforcement-learning policy trained with the plain REINFORCE rule [24].
// Its two defining differences from FairMove, both preserved here: (i)
// agents are purely competitive — the reward is each taxi's own profit with
// no fairness term — and (ii) there is no critic; returns are Monte-Carlo
// with a running mean baseline.
type TBA struct {
	Gamma  float64
	LR     float64
	Hidden []int
	// Shards is the simulator's shard count for training environments
	// (sim.Options.Shards). Any value produces byte-identical results — it
	// only changes wall-clock.
	Shards int
	// Workers bounds the goroutines for batched actor inference and
	// parallel demonstration rollouts; <= 0 means GOMAXPROCS. Results are
	// byte-identical for any value.
	Workers int

	net *nn.MLP
	opt *nn.Adam
	src *rng.Source

	// Batch-update scratch, reused across chunks (see DESIGN.md §9): bcX
	// holds observation rows, bcGrad the fused policy-gradient rows, bcProbs
	// the per-row softmax buffer, bcIdx the selected transitions and bcAdvs
	// their advantages in the REINFORCE pass. Never serialized.
	bcX     *nn.Mat
	bcGrad  *nn.Mat
	bcProbs []float64
	bcAdvs  []float64
	bcIdx   []int

	// dec runs Act's sampled decide and owns its scratch.
	dec Decider

	// running return baseline
	baseline float64
	baseN    int

	// demo holds Pretrain transitions; Train replays behavior-cloning
	// batches from it to anchor the actor while REINFORCE returns are noisy.
	demo TransitionStore

	// fineTuning records that Train already swapped in the gentler
	// optimizer, so a resumed run keeps the warm-start optimizer state
	// instead of resetting it a second time.
	fineTuning bool

	Progress

	tel TrainTel
}

// SetTelemetry installs (or, with nil, removes) training telemetry under the
// "tba." prefix, and Act's policy.decide.* timers.
func (t *TBA) SetTelemetry(r *telemetry.Registry) {
	t.tel = NewTrainTel(r, "tba")
	t.dec.SetTelemetry(r)
}

// NewTBA returns an untrained TBA baseline.
func NewTBA(seed int64) *TBA {
	t := &TBA{
		Gamma:  0.9,
		LR:     0.001,
		Hidden: []int{64},
		src:    rng.SplitStable(seed, "tba-init"),
	}
	sizes := append([]int{sim.FeatureSize}, t.Hidden...)
	sizes = append(sizes, sim.NumActions)
	t.net = nn.NewMLP(t.src, sizes, nn.Tanh, nn.Identity)
	t.opt = nn.NewAdam(t.LR)
	return t
}

// Name implements Policy.
func (t *TBA) Name() string { return "TBA" }

// BeginEpisode implements Policy.
func (t *TBA) BeginEpisode(seed int64) { t.src = rng.SplitStable(seed, "tba") }

// Act implements Policy: it draws each vacant taxi's action from the masked
// softmax policy. Sampling is used at evaluation time too: identical agents
// sharing an observation disperse naturally under a stochastic policy, where
// an argmax would herd them. The decide is FairMove's (Decider): one
// fan-out across Workers observes, evaluates and normalizes, then one
// serial pass draws from t.src in vacant order, so output is byte-identical
// for any worker count. Training rollouts run through Act as well.
func (t *TBA) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	return t.dec.Act(env, t.net, t.src, vacant, t.Workers)
}

// gradStep takes one batched policy-gradient step on transitions idxs of
// buf: one batched forward, fused per-row gradients, one batched backward,
// then a clipped optimizer step. advs holds the advantages of idxs (nil
// means unit advantage — the behavior-cloning case); every row is scaled
// by scale.
func (t *TBA) gradStep(buf *TransitionStore, idxs []int, advs []float64, scale float64) {
	t.net.ZeroGrad()
	t.bcX = buf.GatherObs(t.bcX, idxs)
	logits := t.net.Forward(t.bcX, true)
	t.bcGrad = nn.EnsureMat(t.bcGrad, len(idxs), sim.NumActions)
	if t.bcProbs == nil {
		t.bcProbs = make([]float64, sim.NumActions)
	}
	for b, i := range idxs {
		tr := buf.At(i)
		adv := 1.0
		if advs != nil {
			adv = advs[b]
		}
		nn.PolicyGradientRowInto(logits.Row(b), tr.Mask[:], tr.Action, adv, 0, scale, t.bcProbs, t.bcGrad.Row(b))
	}
	t.net.Backward(t.bcGrad)
	_, grads := t.net.Params()
	t.tel.GradNorm.Observe(nn.ClipGrads(grads, 5))
	t.tel.Steps.Inc()
	t.opt.Step(t.net)
}

// Training implements Learner. Pretrain behavior-clones the actor toward
// the guide's decisions — the cross-entropy gradient is the policy gradient
// with unit advantage — and Train runs REINFORCE episodes. Rewards are
// selfish (α = 1: own profit only), matching the competitive setting of [6].
func (t *TBA) Training() Training {
	return Training{
		Shards: t.Shards, Workers: t.Workers, Alpha: 1, Gamma: t.Gamma, Tel: t.tel,
		StartPhase: t.startPhase,
		LearnDemo:  t.learnDemo,
		Episode:    t.trainEpisode,
	}
}

// startPhase swaps in a gentler optimizer when fine-tuning follows a warm
// start (see FairMove): REINFORCE returns are noisy, so Train polishes
// rather than overwrites the demonstrated policy. The fineTuning flag
// survives checkpoints, so a resumed run keeps polishing with the optimizer
// state it saved instead of resetting the moments a second time.
func (t *TBA) startPhase(phase int) {
	if phase != checkpoint.PhaseTrain {
		return
	}
	if t.demo.Len() > 0 && !t.fineTuning {
		t.opt = nn.NewAdam(t.LR * 0.1)
	}
	t.fineTuning = true
}

// learnDemo clones one demonstration episode in 64-row steps and keeps it
// for Train's anchor batches.
func (t *TBA) learnDemo(buf *TransitionStore) {
	for start := 0; start < buf.Len(); start += 64 {
		t.bcIdx = t.bcIdx[:0]
		for i := start; i < min(start+64, buf.Len()); i++ {
			t.bcIdx = append(t.bcIdx, i)
		}
		t.gradStep(buf, t.bcIdx, nil, 1.0)
	}
	t.demo.Extend(buf)
}

// trainEpisode rolls out one fine-tune episode and takes its REINFORCE
// steps.
func (t *TBA) trainEpisode(env sim.Environment, _, _ int, _ *TrainStats) float64 {
	// One batched Act per slot draws the same actions as a per-taxi loop:
	// the transition callback only buffers.
	var batch TransitionStore
	mean := RunEpisode(env, t, false, 1.0, t.Gamma, func(id int, tr *Transition) {
		if tr != nil {
			batch.Add(tr)
		}
	})
	t.tel.Transitions.Add(int64(batch.Len()))

	// Demonstration anchor (see FairMove): occasional cloning batches keep
	// the actor near competent behavior while returns are noisy.
	if cap(t.bcIdx) < 64 {
		t.bcIdx = make([]int, 64)
	}
	for i := 0; i+64 <= t.demo.Len() && i < 20*64; i += 64 {
		idxs := t.bcIdx[:64]
		for b := range idxs {
			idxs[b] = t.src.Intn(t.demo.Len())
		}
		t.gradStep(&t.demo, idxs, nil, 1.0/64)
	}

	// REINFORCE update over the episode's decisions with a running
	// baseline: ∇ = Σ (G − b) ∇ log π(a|s). The baseline recursion is
	// network-independent, so a first pass folds every return into it and
	// records the surviving (non-zero advantage) transitions; the policy
	// gradients then run as batched 64-row steps over that selection.
	t.bcIdx = t.bcIdx[:0]
	t.bcAdvs = t.bcAdvs[:0]
	for i := range batch.Len() {
		g := batch.At(i).Reward
		t.baseN++
		t.baseline += (g - t.baseline) / float64(t.baseN)
		adv := g - t.baseline
		if adv == 0 {
			continue
		}
		t.bcIdx = append(t.bcIdx, i)
		t.bcAdvs = append(t.bcAdvs, adv)
	}
	for start := 0; start < len(t.bcIdx); start += 64 {
		end := min(start+64, len(t.bcIdx))
		t.gradStep(&batch, t.bcIdx[start:end], t.bcAdvs[start:end], 1.0)
	}
	return mean
}
