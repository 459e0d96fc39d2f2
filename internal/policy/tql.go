package policy

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TQL is the standard Tabular Q-Learning baseline [22]: the state is the
// paper's local view (time index × location index) plus a coarse battery
// bucket, the action space is the shared displacement space, and a single
// Q-table is learned across all agents with an ε-greedy policy. Its reward
// uses the same Eq. 5 blend as FairMove, which is why the paper reports it
// improving fairness despite its crude state.
type TQL struct {
	Alpha    float64 // reward blend α
	Gamma    float64 // discount β
	LR       float64 // Q-table learning rate
	Epsilon  float64 // exploration rate during training
	TimeBins int     // time-of-day buckets (default 24)
	// Shards is the simulator's shard count for training environments
	// (sim.Options.Shards). Any value produces byte-identical results — it
	// only changes wall-clock.
	Shards int

	q   map[tqlState][sim.NumActions]float64
	src *rng.Source
	// exploring is on only inside a fine-tune episode: Act then explores
	// at rate Epsilon.
	exploring bool

	Progress

	tel TrainTel
}

// SetTelemetry installs (or, with nil, removes) training telemetry under the
// "tql." prefix. The table learner has no gradients; GradNorm stays unused.
func (t *TQL) SetTelemetry(r *telemetry.Registry) { t.tel = NewTrainTel(r, "tql") }

type tqlState struct {
	timeBin int
	region  int
	lowSoC  bool
}

// tqlInitQ pessimistically initializes every action's value when a state is
// first touched. With the zero default, actions never tried would keep
// Q = 0 and outrank visited actions whose learned values are negative (all
// charging decisions cost money) — the tabular version of offline
// overestimation.
const tqlInitQ = -1.0

// entry returns the Q-row of st, creating it pessimistically initialized.
func (t *TQL) entry(st tqlState) [sim.NumActions]float64 {
	if qs, ok := t.q[st]; ok {
		return qs
	}
	var qs [sim.NumActions]float64
	for i := range qs {
		qs[i] = tqlInitQ
	}
	t.q[st] = qs
	return qs
}

// NewTQL returns an untrained TQL baseline with the paper's hyperparameters
// (α = 0.6, β = 0.9).
func NewTQL(alpha float64) *TQL {
	return &TQL{
		Alpha:    alpha,
		Gamma:    0.9,
		LR:       0.1,
		Epsilon:  0.05,
		TimeBins: 24,
		q:        make(map[tqlState][sim.NumActions]float64),
		src:      rng.New(0),
	}
}

// Name implements Policy.
func (t *TQL) Name() string { return "TQL" }

// BeginEpisode implements Policy.
func (t *TQL) BeginEpisode(seed int64) { t.src = rng.SplitStable(seed, "tql") }

func (t *TQL) stateOf(env sim.Environment, id int) tqlState {
	bins := t.TimeBins
	if bins <= 0 {
		bins = 24
	}
	minOfDay := env.Now() % (24 * 60)
	return tqlState{
		timeBin: minOfDay * bins / (24 * 60),
		region:  env.TaxiRegion(id),
		lowSoC:  env.TaxiSoC(id) < 0.35,
	}
}

// choose picks the ε-greedy best valid action for the state.
func (t *TQL) choose(st tqlState, mask [sim.NumActions]bool) int {
	valid := make([]int, 0, sim.NumActions)
	for i, ok := range mask {
		if ok {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return 0
	}
	if t.exploring && t.src.Bool(t.Epsilon) {
		return valid[t.src.Intn(len(valid))]
	}
	qs := t.entry(st)
	best, bestQ := valid[0], math.Inf(-1)
	for _, a := range valid {
		if qs[a] > bestQ {
			best, bestQ = a, qs[a]
		}
	}
	return best
}

// maxQ returns the maximum Q over valid actions of st.
func (t *TQL) maxQ(st tqlState, mask [sim.NumActions]bool) float64 {
	qs := t.entry(st)
	best := math.Inf(-1)
	for i, ok := range mask {
		if ok && qs[i] > best {
			best = qs[i]
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// Act implements Policy (greedy over the learned table).
func (t *TQL) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	actions := make(map[int]sim.Action, len(vacant))
	for _, id := range vacant {
		st := t.stateOf(env, id)
		idx := t.choose(st, env.ValidMask(id))
		actions[id] = sim.ActionFromIndex(idx)
	}
	return actions
}

// learnHook returns RunEpisode's decision callback for an episode on env:
// it applies the standard Q-update for the transition a decision closes and
// records the state the taxi's next transition opens in.
func (t *TQL) learnHook(env sim.Environment) func(id int, tr *Transition) {
	opened := make([]tqlState, len(env.City().Fleet))
	return func(id int, tr *Transition) {
		if tr != nil {
			target := tr.Reward
			if !tr.Terminal {
				// The transition closes exactly when the environment sits at
				// the taxi's next decision, so the next state can be read off
				// the environment directly.
				ns := t.stateOf(env, id)
				target += math.Pow(t.Gamma, float64(tr.Elapsed)) * t.maxQ(ns, tr.NextMask)
			}
			st := opened[id]
			qs := t.entry(st)
			qs[tr.Action] += t.LR * (target - qs[tr.Action])
			t.q[st] = qs
			t.tel.Transitions.Inc()
			t.tel.Steps.Inc()
		}
		opened[id] = t.stateOf(env, id)
	}
}

// Training implements Learner. Pretrain applies off-policy Q-learning
// updates inside the demonstration rollouts (the update reads the taxi's
// next state off the live environment); Train runs ε-greedy Q-learning.
// Each episode replays a fresh demand realization; transitions close at
// each taxi's next decision (semi-MDP).
func (t *TQL) Training() Training {
	return Training{
		Shards: t.Shards, Alpha: t.Alpha, Gamma: t.Gamma, Tel: t.tel,
		DemoHook: t.learnHook,
		Episode:  t.trainEpisode,
	}
}

// trainEpisode runs one fine-tune episode of Q-learning. Per-taxi Acts: each
// taxi decides with the table the slot's earlier updates left.
func (t *TQL) trainEpisode(env sim.Environment, _, _ int, stats *TrainStats) float64 {
	t.exploring = true
	mean := RunEpisode(env, t, true, t.Alpha, t.Gamma, t.learnHook(env))
	t.exploring = false
	t.tel.Epsilon.Set(t.Epsilon)
	stats.StatesVisited = len(t.q)
	return mean
}
