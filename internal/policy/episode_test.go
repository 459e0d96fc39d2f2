package policy

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// firstValid is a deterministic, rng-free test policy: every vacant taxi
// takes the first action its mask allows.
type firstValid struct{}

func (firstValid) Name() string       { return "first-valid" }
func (firstValid) BeginEpisode(int64) {}
func (firstValid) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	acts := make(map[int]sim.Action, len(vacant))
	for _, id := range vacant {
		mask := env.ValidMask(id)
		acts[id] = sim.ActionFromIndex(max(slices.Index(mask[:], true), 0))
	}
	return acts
}

// recorder wraps a policy and logs every Act call into a shared event log.
type recorder struct {
	Policy
	log *[]string
}

func (r recorder) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	*r.log = append(*r.log, fmt.Sprint("act", vacant))
	return r.Policy.Act(env, vacant)
}

// TestRunEpisodeDecisionOrder pins when RunEpisode's callback runs relative
// to Act: with perTaxi each taxi's callback comes right before its own
// one-taxi Act, without it every callback of the slot comes before one Act
// over the whole vacant set. A taxi's first decision closes nothing (nil),
// and every transition still open at the horizon closes Terminal.
func TestRunEpisodeDecisionOrder(t *testing.T) {
	city := testCity(t, 13)
	for _, perTaxi := range []bool{true, false} {
		t.Run(fmt.Sprint("perTaxi=", perTaxi), func(t *testing.T) {
			env := sim.New(city, sim.DefaultOptions(1), 13)
			var log []string
			var want []string
			seen := make([]bool, len(city.Fleet))
			terminal := 0
			pol := recorder{Policy: firstValid{}, log: &log}
			slots := 0
			RunEpisode(env, pol, perTaxi, 0.6, 0.9, func(id int, tr *Transition) {
				if env.Done() {
					if tr == nil || !tr.Terminal {
						t.Fatalf("taxi %d: horizon call with %+v, want a Terminal transition", id, tr)
					}
					terminal++
					return
				}
				if (tr == nil) != !seen[id] {
					t.Fatalf("slot %d taxi %d: closed transition %v at decision, first decision %v",
						env.Slot(), id, tr != nil, !seen[id])
				}
				if tr != nil && tr.Terminal {
					t.Fatalf("taxi %d: mid-episode transition marked Terminal", id)
				}
				seen[id] = true
				log = append(log, fmt.Sprint("hook ", id))
			})
			// Replay the same episode by hand to build the expected log:
			// the trajectory does not depend on the callback.
			ref := sim.New(city, sim.DefaultOptions(1), 13)
			r := NewRunner(firstValid{}, ref, 13)
			for !r.Done() {
				vacant := ref.VacantTaxis()
				if perTaxi {
					for _, id := range vacant {
						want = append(want, fmt.Sprint("hook ", id), fmt.Sprint("act", []int{id}))
					}
				} else {
					for _, id := range vacant {
						want = append(want, fmt.Sprint("hook ", id))
					}
					want = append(want, fmt.Sprint("act", vacant))
				}
				r.StepSlot()
				slots++
			}
			if slots == 0 || terminal == 0 {
				t.Fatalf("vacuous episode: %d slots, %d terminal transitions", slots, terminal)
			}
			open := 0
			for _, s := range seen {
				if s {
					open++
				}
			}
			if terminal != open {
				t.Fatalf("%d terminal transitions for %d taxis that ever decided", terminal, open)
			}
			if !slices.Equal(log, want) {
				n := 0
				for n < min(len(log), len(want)) && log[n] == want[n] {
					n++
				}
				t.Fatalf("call order diverges at event %d of %d/%d: got %q, want %q",
					n, len(log), len(want), log[n:min(n+3, len(log))], want[n:min(n+3, len(want))])
			}
		})
	}
}

// invalidPolicy submits invalid actions on purpose, rotating through four
// kinds: mask-invalid (Stay for a taxi that must charge, Charge for a taxi
// too full to be allowed to; Stay otherwise) and three outside the action
// space — Move(MaxNeighbors), Move(-1) and Charge(KStations).
type invalidPolicy struct{ submitted, calls int }

func (*invalidPolicy) Name() string       { return "invalid" }
func (*invalidPolicy) BeginEpisode(int64) {}
func (p *invalidPolicy) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	acts := make(map[int]sim.Action, len(vacant))
	for _, id := range vacant {
		mask := env.ValidMask(id)
		var a sim.Action
		switch p.calls % 4 {
		case 0:
			a = sim.Action{Kind: sim.Stay}
			if mask[0] && !mask[sim.ActionIndex(sim.Action{Kind: sim.Charge})] {
				a = sim.Action{Kind: sim.Charge}
			}
		case 1:
			a = sim.Action{Kind: sim.Move, Arg: sim.MaxNeighbors}
		case 2:
			a = sim.Action{Kind: sim.Move, Arg: -1}
		case 3:
			a = sim.Action{Kind: sim.Charge, Arg: sim.KStations}
		}
		p.calls++
		if i := sim.ActionIndex(a); i < 0 || !mask[i] {
			p.submitted++
		}
		acts[id] = a
	}
	return acts
}

// TestRunEpisodeRecordsExecutedAction pins the mask fallback RunEpisode's
// bookkeeping relies on: a mask-invalid action, or one outside the action
// space, is recorded as the first valid index, which must be exactly the
// action Step executes after coercing it (Charge(0) for a taxi that must
// charge, Stay otherwise).
// Every recorded action is the first valid index, the episode equals one
// in which each taxi submitted that index itself, and env.InvalidActions
// counts every invalid submission.
func TestRunEpisodeRecordsExecutedAction(t *testing.T) {
	city := testCity(t, 14)
	env := sim.New(city, sim.DefaultOptions(1), 14)
	pol := &invalidPolicy{}
	var checked int
	kinds := map[sim.ActionKind]int{}
	RunEpisode(env, pol, false, 0.6, 0.9, func(id int, tr *Transition) {
		if tr == nil {
			return
		}
		if !tr.Mask[tr.Action] {
			t.Fatalf("taxi %d: recorded action %d is masked", id, tr.Action)
		}
		if i := slices.Index(tr.Mask[:], true); tr.Action != i {
			t.Fatalf("taxi %d: recorded action %d, want the first valid index %d", id, tr.Action, i)
		}
		kinds[sim.ActionFromIndex(tr.Action).Kind]++
		checked++
	})
	if pol.submitted == 0 || checked == 0 {
		t.Fatalf("vacuous: %d invalid submissions, %d transitions", pol.submitted, checked)
	}
	if kinds[sim.Stay] == 0 || kinds[sim.Charge] == 0 {
		t.Fatalf("both fallbacks must occur, got %v", kinds)
	}
	if got := env.InvalidActions(); got != pol.submitted {
		t.Fatalf("env counted %d invalid actions, policy submitted %d", got, pol.submitted)
	}
	// Step executed the recorded actions: submitting them directly replays
	// the same episode.
	want := Evaluate(firstValid{}, sim.New(city, sim.DefaultOptions(1), 14), 14)
	if !reflect.DeepEqual(env.Results(), want) {
		t.Fatal("the coerced episode differs from one submitting the recorded first-valid actions")
	}
}
