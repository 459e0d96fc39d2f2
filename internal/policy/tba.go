package policy

import (
	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
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
	// the per-row softmax buffer, bcAdvs the per-transition advantages of
	// the REINFORCE pass. Never serialized.
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
	demo []Transition

	// resume cursors (see the DQN fields of the same name). fineTuning
	// records that Train already swapped in the gentler optimizer, so a
	// resumed run keeps the warm-start optimizer state instead of resetting
	// it a second time.
	demoDone   int
	epDone     int
	fineTuning bool

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

// gradStep takes one batched policy-gradient step on transitions
// buf[idxs[start..end)] (idxs nil means buf[start..end) directly): one
// batched forward, fused per-row gradients, one batched backward, then a
// clipped optimizer step. advs holds per-selection advantages indexed like
// idxs (nil means unit advantage — the behavior-cloning case); every row is
// scaled by scale.
func (t *TBA) gradStep(buf []Transition, idxs []int, start, end int, advs []float64, scale float64) {
	n := end - start
	t.net.ZeroGrad()
	t.bcX = nn.EnsureMat(t.bcX, n, sim.FeatureSize)
	at := func(b int) *Transition {
		if idxs != nil {
			return &buf[idxs[start+b]]
		}
		return &buf[start+b]
	}
	for b := 0; b < n; b++ {
		t.bcX.SetRow(b, at(b).Obs)
	}
	logits := t.net.Forward(t.bcX, true)
	t.bcGrad = nn.EnsureMat(t.bcGrad, n, sim.NumActions)
	if t.bcProbs == nil {
		t.bcProbs = make([]float64, sim.NumActions)
	}
	for b := 0; b < n; b++ {
		tr := at(b)
		adv := 1.0
		if advs != nil {
			adv = advs[start+b]
		}
		nn.PolicyGradientRowInto(logits.Row(b), tr.Mask[:], tr.Action, adv, 0, scale, t.bcProbs, t.bcGrad.Row(b))
	}
	t.net.Backward(t.bcGrad)
	_, grads := t.net.Params()
	t.tel.GradNorm.Observe(nn.ClipGrads(grads, 5))
	t.tel.Steps.Inc()
	t.opt.Step(t.net)
}

// Pretrain behavior-clones the actor toward guide's decisions over
// demonstration episodes — a warm start before REINFORCE fine-tuning. The
// cross-entropy gradient is the policy gradient with unit advantage.
//
// Rollouts are guide-driven, so episodes fan out across Workers and the
// cloning updates consume them serially in episode order — byte-identical
// to a serial run.
func (t *TBA) Pretrain(city *synth.City, guide Policy, episodes, days int, seed int64) {
	_ = t.PretrainCheckpointed(city, guide, episodes, days, seed, checkpoint.TrainOptions{})
}

// PretrainCheckpointed is Pretrain with a checkpoint cadence, resuming past
// the demonstration episodes a loaded checkpoint already consumed.
func (t *TBA) PretrainCheckpointed(city *synth.City, guide Policy, episodes, days int, seed int64, opts checkpoint.TrainOptions) error {
	from := t.demoDone
	bufs := CollectDemosFrom(t.Shards, city, guide, from, episodes, days, seed, t.Workers, 1.0, t.Gamma)
	for i, batch := range bufs {
		ep := from + i
		t.BeginEpisode(DemoEpisodeSeed(seed, ep))
		for start := 0; start < len(batch); start += 64 {
			end := min(start+64, len(batch))
			t.gradStep(batch, nil, start, end, nil, 1.0)
		}
		t.demo = append(t.demo, batch...)
		t.demoDone = ep + 1
		if opts.ShouldSave(t.demoDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, t, opts.Keep); err != nil {
				return err
			}
		}
	}
	return nil
}

// Train runs REINFORCE episodes until `episodes` total are complete. Rewards
// are selfish (α = 1: own profit only), matching the competitive setting
// of [6].
func (t *TBA) Train(city *synth.City, episodes, days int, seed int64) TrainStats {
	stats, _ := t.TrainCheckpointed(city, episodes, days, seed, checkpoint.TrainOptions{})
	return stats
}

// TrainCheckpointed is Train with a checkpoint cadence.
func (t *TBA) TrainCheckpointed(city *synth.City, episodes, days int, seed int64, opts checkpoint.TrainOptions) (TrainStats, error) {
	stats := TrainStats{Episodes: episodes}
	env := sim.New(city, EpisodeOptions(days, t.Shards), seed)

	// Gentle fine-tuning after a warm start (see FairMove.Train): REINFORCE
	// returns are noisy, so polish rather than overwrite the demonstrated
	// policy. The fineTuning flag survives checkpoints, so a resumed run
	// keeps polishing with the optimizer state it saved instead of resetting
	// the moments a second time.
	if len(t.demo) > 0 && !t.fineTuning {
		t.opt = nn.NewAdam(t.LR * 0.1)
	}
	t.fineTuning = true
	for ep := t.epDone; ep < episodes; ep++ {
		epSeed := seed + int64(ep)
		env.Reset(epSeed)
		t.BeginEpisode(epSeed)

		// One batched Act per slot draws the same actions as a per-taxi
		// loop: the transition callback only buffers.
		var batch []Transition
		epTime := t.tel.EpisodeTime.Start()
		mean := RunEpisode(env, t, false,
			1.0, // selfish: no fairness term
			t.Gamma,
			func(id int, tr *Transition) {
				if tr != nil {
					batch = append(batch, tr.Detach())
				}
			},
		)
		epTime.Stop()
		t.tel.Episodes.Inc()
		t.tel.Transitions.Add(int64(len(batch)))
		t.tel.MeanReward.Set(mean)
		stats.MeanReward = append(stats.MeanReward, mean)

		// Demonstration anchor (see FairMove): occasional cloning batches
		// keep the actor near competent behavior while returns are noisy.
		if cap(t.bcIdx) < 64 {
			t.bcIdx = make([]int, 64)
		}
		for i := 0; i+64 <= len(t.demo) && i < 20*64; i += 64 {
			idxs := t.bcIdx[:64]
			for b := 0; b < 64; b++ {
				idxs[b] = t.src.Intn(len(t.demo))
			}
			t.gradStep(t.demo, idxs, 0, 64, nil, 1.0/64)
		}

		// REINFORCE update over the episode's decisions with a running
		// baseline: ∇ = Σ (G − b) ∇ log π(a|s). The baseline recursion is
		// network-independent, so a first pass folds every return into it and
		// records the surviving (non-zero advantage) transitions; the policy
		// gradients then run as batched 64-row steps over that selection.
		t.bcIdx = t.bcIdx[:0]
		t.bcAdvs = t.bcAdvs[:0]
		for i, tr := range batch {
			g := tr.Reward
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
			t.gradStep(batch, t.bcIdx, start, end, t.bcAdvs, 1.0)
		}
		t.epDone = ep + 1
		if opts.ShouldSave(t.epDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, t, opts.Keep); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}
