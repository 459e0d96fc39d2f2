package policy

import (
	"maps"

	"repro/internal/sim"
)

// Decision is one per-taxi displacement decision of a slot — the unit the
// online dispatch service returns to callers and the batch evaluation loop
// applies to the environment. Region is the taxi's region at decision time
// (before the action executes).
type Decision struct {
	Slot   int
	Taxi   int
	Region int
	Action sim.Action
}

// Runner owns the slot-by-slot decision loop: ask the policy for one action
// per vacant taxi, apply them, advance the environment one slot. It is the
// seam the serve refactor split out of Evaluate — the batch path
// (policy.Evaluate) and the online dispatch service (internal/serve) drive
// the identical loop, so a served trajectory is byte-identical to a batch
// run of the same (policy, env, seed) by construction, and the
// serve-equivalence golden test pins it.
//
// Training rollouts (RunEpisode) drive the same loop with two unexported
// settings: beforeAct sees each vacant taxi just before the Act call that
// decides it, and perTaxi makes that one Act per taxi, so a learner whose
// transition hook learns can decide every later taxi of the slot with what
// the earlier ones taught it.
//
// A Runner is single-goroutine, like the Environment it wraps.
type Runner struct {
	env sim.Environment
	pol Policy

	beforeAct func(id int)
	perTaxi   bool
	// taxiActs merges the per-taxi Act maps of a perTaxi slot.
	taxiActs map[int]sim.Action

	// decisions is the reused per-slot output buffer: StepSlot overwrites it
	// on every call, so callers that retain decisions must copy them.
	decisions []Decision
	slots     int
}

// NewRunner resets env with seed, begins the policy's episode, and returns a
// runner positioned at slot 0. The reset/begin order matches what Evaluate
// has always done, which is what keeps the two paths byte-identical.
func NewRunner(p Policy, env sim.Environment, seed int64) *Runner {
	env.Reset(seed)
	p.BeginEpisode(seed)
	return &Runner{env: env, pol: p}
}

// Env returns the wrapped environment (read-only use between steps).
func (r *Runner) Env() sim.Environment { return r.env }

// Policy returns the currently installed policy.
func (r *Runner) Policy() Policy { return r.pol }

// SetPolicy atomically (from the driving goroutine's point of view: between
// slots) replaces the policy for all subsequent slots — the hot-swap seam.
// The new policy's episode begins at the given seed so learners with
// per-episode rng streams (CMA2C exploration) are initialized.
func (r *Runner) SetPolicy(p Policy, seed int64) {
	p.BeginEpisode(seed)
	r.pol = p
}

// Done reports whether the horizon has been reached.
func (r *Runner) Done() bool { return r.env.Done() }

// Slots returns how many slots StepSlot has completed.
func (r *Runner) Slots() int { return r.slots }

// StepSlot asks the policy for this slot's actions, records one Decision per
// vacant taxi (missing policy entries default to Stay, exactly as Step
// treats them), applies the actions, and advances the environment one slot.
// The returned slice is reused by the next call. It is the only code that
// calls Policy.Act and Environment.Step.
func (r *Runner) StepSlot() []Decision {
	slot := r.env.Slot()
	vacant := r.env.VacantTaxis()
	acts := r.act(vacant)
	r.decisions = r.decisions[:0]
	for _, id := range vacant {
		a, ok := acts[id]
		if !ok {
			a = sim.Action{Kind: sim.Stay}
		}
		r.decisions = append(r.decisions, Decision{
			Slot:   slot,
			Taxi:   id,
			Region: r.env.TaxiRegion(id),
			Action: a,
		})
	}
	r.env.Step(acts)
	r.slots++
	return r.decisions
}

// act returns the slot's action map. Without a beforeAct hook (evaluation
// and serving) it is one Act over the whole vacant set. With one, the hook
// runs for each taxi before the Act call that decides it: every hook call
// then one Act, or with perTaxi one hook call and one single-taxi Act per
// taxi in vacant order, the maps merged.
func (r *Runner) act(vacant []int) map[int]sim.Action {
	if r.beforeAct == nil {
		return r.pol.Act(r.env, vacant)
	}
	if !r.perTaxi {
		for _, id := range vacant {
			r.beforeAct(id)
		}
		return r.pol.Act(r.env, vacant)
	}
	if r.taxiActs == nil {
		r.taxiActs = make(map[int]sim.Action)
	}
	clear(r.taxiActs)
	for i, id := range vacant {
		r.beforeAct(id)
		maps.Copy(r.taxiActs, r.pol.Act(r.env, vacant[i:i+1]))
	}
	return r.taxiActs
}

// Results returns the environment's accounting.
func (r *Runner) Results() *sim.Results { return r.env.Results() }
