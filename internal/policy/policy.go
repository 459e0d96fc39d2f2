// Package policy defines the displacement-policy interface and implements
// the paper's five baselines: ground-truth driver behavior (GT),
// shortest-distance displacement (SD2), tabular Q-learning (TQL), Deep
// Q-Networks (DQN), and the REINFORCE-based trip bandit (TBA). The paper's
// contribution, CMA2C, lives in internal/core and shares the episode
// harness and reward definition declared here.
package policy

import (
	"slices"

	"repro/internal/sim"
)

// Policy decides one displacement action per vacant taxi each time slot.
type Policy interface {
	// Name identifies the strategy in reports (e.g. "SD2").
	Name() string
	// Act returns actions for the given vacant taxis. Missing entries
	// default to Stay. Implementations must respect the environment's
	// action mask; violations are coerced and counted. Runner.StepSlot is
	// its only caller: once per slot with the whole vacant set, or, in a
	// per-taxi training rollout (RunEpisode), once per taxi with a
	// one-element vacant slice.
	Act(env sim.Environment, vacant []int) map[int]sim.Action
	// BeginEpisode resets any per-episode state (e.g. exploration).
	BeginEpisode(seed int64)
}

// RewardScale normalizes Eq. 5 rewards before they reach value networks;
// fares are tens of CNY so raw slot-PE values are O(100).
const RewardScale = 0.01

// SlotReward computes the paper's blended reward r(k,t) (Eq. 4-5) for taxi
// id over the slot just simulated: α times the taxi's slot profit
// efficiency minus (1-α) times the fairness penalty. The penalty is the
// per-slot *change* of the fleet PE variance ΔPF(t) rather than its level:
// the sum of deltas telescopes to the same episode objective, but the level
// is a shared constant no single action controls, and feeding it raw drowns
// the per-agent credit signal (it grows to hundreds while a slot's profit
// term is O(10)). pfDelta is passed in so callers evaluate it once per slot.
func SlotReward(env sim.Environment, id int, alpha, pfDelta float64) float64 {
	slotHours := float64(env.SlotLen()) / 60
	pe := env.SlotProfit(id) / slotHours
	return (alpha*pe - (1-alpha)*pfDelta) * RewardScale
}

// Transition is one semi-MDP learning sample: the observation and action at
// a decision slot, the discounted reward accumulated until the taxi's next
// decision, and the observation there. Elapsed counts slots between the two
// decisions (≥1), used to discount the bootstrap term by gamma^Elapsed.
//
// RunEpisode's onDecision callback gets a borrowed *Transition: the
// transition itself and its Obs and NextObs buffers are reused by the same
// taxi's next decision, so a callback that stores the transition beyond its
// own return must Detach a copy (or copy the slices into storage it owns, as
// the DQN replay ring does).
type Transition struct {
	Obs      []float64
	Mask     [sim.NumActions]bool
	Action   int // flattened action index
	Reward   float64
	NextObs  []float64
	NextMask [sim.NumActions]bool
	Elapsed  int
	Terminal bool
}

// Detach returns the transition with Obs and NextObs copied into fresh
// storage, safe to keep after the onDecision callback returns. A nil
// NextObs (terminal transitions) stays nil.
func (tr Transition) Detach() Transition {
	tr.Obs = append([]float64(nil), tr.Obs...)
	if tr.NextObs != nil {
		tr.NextObs = append([]float64(nil), tr.NextObs...)
	}
	return tr
}

// RunEpisode drives env from its current state to the horizon under pol,
// accumulating Eq. 5 rewards with the given alpha and gamma. It returns the
// mean per-decision reward (the "average reward r" of Table IV). The caller
// resets env and begins pol's episode; the slots run through a Runner.
//
// A transition opens when a vacant taxi decides and closes at that taxi's
// next decision (or at the horizon, marked Terminal). Rewards earned in the
// intervening slots — fares collected, charging costs paid, and the fleet
// fairness term — are discounted by gamma per slot. onDecision, when set,
// runs at each decision before pol decides the taxi, with the transition it
// closes (nil at the taxi's first decision), and once more per open
// transition at the horizon. The transition is borrowed (see Transition).
//
// With perTaxi false one Act decides the whole vacant set after every
// onDecision call of the slot. With perTaxi true each taxi gets its own Act
// right after its onDecision call, so a learner that learns inside
// onDecision decides each later taxi of the slot with what the earlier
// ones taught it.
//
// A transition records the action Step executes: a mask-invalid choice, or
// one outside the action space (ActionIndex -1), is recorded as the first
// valid index, which is what Step coerces it to.
func RunEpisode(env sim.Environment, pol Policy, perTaxi bool, alpha, gamma float64, onDecision func(id int, tr *Transition)) (meanReward float64) {
	type pending struct {
		// tr.Obs is a pend-owned copy of the opening observation's features:
		// Observation.Features borrows an env buffer the same taxi's next
		// Observe rewrites, and a transition stays open across many slots.
		tr      Transition
		gammaPw float64
		open    bool
	}
	pend := make([]pending, len(env.City().Fleet))

	r := &Runner{env: env, pol: pol, perTaxi: perTaxi, beforeAct: func(id int) {
		obs := env.Observe(id)
		p := &pend[id]
		if onDecision != nil {
			var closed *Transition
			if p.open {
				closed = &p.tr
				closed.NextObs, closed.NextMask = obs.Features, obs.Mask
			}
			onDecision(id, closed)
		}
		p.tr = Transition{Obs: append(p.tr.Obs[:0], obs.Features...), Mask: obs.Mask}
		p.gammaPw = 1
		p.open = true
	}}

	var rewardSum float64
	var rewardN int
	_, pfPrev := env.FleetPEStats()
	for !env.Done() {
		for _, d := range r.StepSlot() {
			p := &pend[d.Taxi]
			p.tr.Action = sim.ActionIndex(d.Action)
			if p.tr.Action < 0 || !p.tr.Mask[p.tr.Action] {
				if i := slices.Index(p.tr.Mask[:], true); i >= 0 {
					p.tr.Action = i
				}
			}
		}

		// Accrue this slot's reward into every open transition; one opened
		// this slot (Elapsed still 0) counts toward the decision mean.
		_, pfNow := env.FleetPEStats()
		pfDelta := pfNow - pfPrev
		pfPrev = pfNow
		for id := range pend {
			p := &pend[id]
			if !p.open {
				continue
			}
			rw := SlotReward(env, id, alpha, pfDelta)
			if p.tr.Elapsed == 0 {
				rewardSum += rw
				rewardN++
			}
			p.tr.Reward += p.gammaPw * rw
			p.gammaPw *= gamma
			p.tr.Elapsed++
		}
	}

	// Close transitions still open at the horizon.
	if onDecision != nil {
		for id := range pend {
			if p := &pend[id]; p.open {
				p.tr.Terminal = true
				onDecision(id, &p.tr)
			}
		}
	}

	if rewardN == 0 {
		return 0
	}
	return rewardSum / float64(rewardN)
}

// Evaluate runs policy p over a fresh environment seeded with seed and
// returns the accounting. All strategies in the evaluation are compared on
// the same (city, seed) pair, hence on an identical demand realization.
//
// It is a thin loop over Runner — the same slot driver the online dispatch
// service steps from its event feed — so batch and served trajectories are
// byte-identical by construction.
func Evaluate(p Policy, env sim.Environment, seed int64) *sim.Results {
	r := NewRunner(p, env, seed)
	for !r.Done() {
		r.StepSlot()
	}
	return r.Results()
}
