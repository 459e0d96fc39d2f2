package policy

import (
	"math"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
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
	replay []Transition
	rpPos  int
	src    *rng.Source
	steps  int

	// learn scratch, reused call to call (shapes are fixed by Batch and
	// the observation/action widths, so steady-state training allocates
	// nothing here). lxn holds the minibatch next-observations for the
	// batched target-network pass. Never serialized.
	lx    *nn.Mat
	lxn   *nn.Mat
	lgrad *nn.Mat
	lidx  []int

	// dec runs Act's decide and owns its scratch.
	dec Decider

	exploring bool
	eps       float64

	// resume cursors: completed pretraining and fine-tuning episodes.
	// Checkpoints are cut at episode boundaries, and every per-episode
	// stream re-derives from (seed, episode), so these two counters plus
	// the serialized state above fully determine the rest of a run.
	demoDone int
	epDone   int

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

// epsGreedy is DQN's ε-greedy choice over an evaluated Q-row: with
// probability eps a uniformly random valid action, otherwise the masked
// argmax. The ε draw always comes first. The random action is the
// Intn(count)-th valid one, counted and walked to in place: the draws of
// collecting the valid actions and indexing them, without the slice.
func epsGreedy(src *rng.Source, qs []float32, mask [sim.NumActions]bool, eps float64) int {
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
	a, _ := maskedArgmax(qs, mask)
	return a
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

// remember stores a transition in the fixed-capacity ring-buffer replay
// memory, copying Obs/NextObs into the slot's own storage — the incoming
// slices borrow RunEpisode buffers, and an overwritten slot donates its
// old backing arrays, so a full ring recycles storage instead of allocating.
func (d *DQN) remember(tr Transition) {
	d.tel.Transitions.Inc()
	var slot *Transition
	if len(d.replay) < d.Buffer {
		d.replay = append(d.replay, Transition{})
		slot = &d.replay[len(d.replay)-1]
	} else {
		slot = &d.replay[d.rpPos]
		d.rpPos = (d.rpPos + 1) % d.Buffer
	}
	obs, next := slot.Obs, slot.NextObs
	*slot = tr
	slot.Obs = append(obs[:0], tr.Obs...)
	if tr.NextObs != nil {
		slot.NextObs = append(next[:0], tr.NextObs...)
	} else {
		slot.NextObs = nil
	}
}

// learn samples a minibatch and takes one TD step:
// L(θ) = E[(Q(s,a;θ) − y)²], y = r + β^elapsed · max_a' Q̂(s',a').
func (d *DQN) learn() {
	if len(d.replay) < d.Batch {
		return
	}
	d.net.ZeroGrad()
	if d.lx == nil {
		d.lx = nn.NewMat(d.Batch, sim.FeatureSize)
		d.lxn = nn.NewMat(d.Batch, sim.FeatureSize)
		d.lgrad = nn.NewMat(d.Batch, sim.NumActions)
		d.lidx = make([]int, d.Batch)
	}
	x, xn, grad, idxs := d.lx, d.lxn, d.lgrad, d.lidx
	// x's and xn's rows are fully overwritten below; grad is sparse and must
	// start from zero. Terminal transitions bootstrap zero, so their xn rows
	// are zeroed and the target row discarded — the batch shape stays fixed.
	for i := range grad.Data {
		grad.Data[i] = 0
	}
	for b := 0; b < d.Batch; b++ {
		idxs[b] = d.src.Intn(len(d.replay))
		tr := &d.replay[idxs[b]]
		x.SetRow(b, tr.Obs)
		if tr.Terminal || tr.NextObs == nil {
			row := xn.Row(b)
			for j := range row {
				row[j] = 0
			}
		} else {
			xn.SetRow(b, tr.NextObs)
		}
	}
	// Online prediction and target evaluation are each one batched GEMM pass
	// per layer instead of per-sample loops.
	pred := d.net.Forward(x, true)
	nextQ := d.target.ForwardBatch(xn, 1)
	for b := 0; b < d.Batch; b++ {
		tr := d.replay[idxs[b]]
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

// Pretrain seeds the replay buffer with demonstration episodes driven by
// guide and performs offline Q-learning steps on them — a warm start before
// on-policy Train. Q-learning is off-policy, so learning from ground-truth
// driver trajectories is sound and lets the network start from competent
// behavior instead of random queue-flooding exploration.
//
// Rollouts are guide-driven (the learner's weights never influence the
// trajectories), so episodes fan out across Workers; the replay buffer and
// the offline sweeps then consume them serially in episode order, keeping
// the result byte-identical to a serial run.
func (d *DQN) Pretrain(city *synth.City, guide Policy, episodes, days int, seed int64) {
	_ = d.PretrainCheckpointed(city, guide, episodes, days, seed, checkpoint.TrainOptions{})
}

// PretrainCheckpointed is Pretrain with a checkpoint cadence. Pretraining
// resumes past the demonstration episodes a loaded checkpoint already
// consumed; the completed run is byte-identical to an unbroken one.
func (d *DQN) PretrainCheckpointed(city *synth.City, guide Policy, episodes, days int, seed int64, opts checkpoint.TrainOptions) error {
	from := d.demoDone
	bufs := CollectDemosFrom(d.Shards, city, guide, from, episodes, days, seed, d.Workers, d.Alpha, d.Gamma)
	for i, buf := range bufs {
		ep := from + i
		// Restore d.src exactly where the serial loop left it: reset at the
		// top of the episode and untouched by the guide-driven rollout.
		d.BeginEpisode(DemoEpisodeSeed(seed, ep))
		for _, tr := range buf {
			d.remember(tr)
		}
		// Offline sweep over the demonstration data.
		steps := len(d.replay) / d.Batch
		for s := 0; s < steps; s++ {
			d.learn()
		}
		d.demoDone = ep + 1
		if opts.ShouldSave(d.demoDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, d, opts.Keep); err != nil {
				return err
			}
		}
	}
	return nil
}

// Train runs episodes of environment interaction with replay learning,
// continuing until `episodes` total fine-tuning episodes are complete. A
// learner restored from a mid-run checkpoint picks up at its next episode;
// the total matters because the linear ε schedule spans all of them.
func (d *DQN) Train(city *synth.City, episodes, days int, seed int64) TrainStats {
	stats, _ := d.TrainCheckpointed(city, episodes, days, seed, checkpoint.TrainOptions{})
	return stats
}

// TrainCheckpointed is Train with a checkpoint cadence.
func (d *DQN) TrainCheckpointed(city *synth.City, episodes, days int, seed int64, opts checkpoint.TrainOptions) (TrainStats, error) {
	stats := TrainStats{Episodes: episodes}
	env := sim.New(city, EpisodeOptions(days, d.Shards), seed)
	for ep := d.epDone; ep < episodes; ep++ {
		epSeed := seed + int64(ep)
		env.Reset(epSeed)
		d.BeginEpisode(epSeed)
		d.exploring = true
		// Linear ε decay across episodes.
		if episodes > 1 {
			frac := float64(ep) / float64(episodes-1)
			d.eps = d.Epsilon + (d.MinEps-d.Epsilon)*frac
		}
		// Per-taxi Acts: a learn step inside the callback moves the weights
		// that every later taxi of the same slot decides with.
		learnEvery := 4
		nSeen := 0
		epTime := d.tel.EpisodeTime.Start()
		mean := RunEpisode(env, d, true, d.Alpha, d.Gamma,
			func(id int, tr *Transition) {
				if tr == nil {
					return
				}
				d.remember(*tr)
				nSeen++
				if nSeen%learnEvery == 0 {
					d.learn()
				}
			},
		)
		epTime.Stop()
		d.tel.Episodes.Inc()
		d.tel.MeanReward.Set(mean)
		d.tel.Epsilon.Set(d.eps)
		stats.MeanReward = append(stats.MeanReward, mean)
		d.epDone = ep + 1
		if opts.ShouldSave(d.epDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, d, opts.Keep); err != nil {
				d.exploring = false
				return stats, err
			}
		}
	}
	d.exploring = false
	stats.FinalEpsilon = d.eps
	return stats, nil
}

// Net exposes the online network (for serialization).
func (d *DQN) Net() *nn.MLP { return d.net }
