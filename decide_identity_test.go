package fairmove

// Decide identity: the fused decide every network learner runs
// (policy.Decider — observe and forward, plus the softmax for FairMove and
// TBA, fanned out per block of the vacant set, then one serial draw or
// ε-greedy choice) must pick exactly the actions of the plain per-taxi
// loop it replaced, at any worker count, with and without GPS-dropout
// hooks. The test runs in the short tier, so `make race` drives the
// concurrent ObserveRows path.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// referenceChoice picks one taxi's action index from its output row (logits
// or Q-values) and mask, drawing from src.
type referenceChoice func(src *rng.Source, out []float32, mask [sim.NumActions]bool) int

// referenceDecide is the per-taxi decide loop: Observe each taxi, narrow
// its features into a batch row, one ForwardBatch, then per taxi in vacant
// order one choice on src.
func referenceDecide(env sim.Environment, net *nn.MLP, src *rng.Source, vacant []int, choose referenceChoice) map[int]sim.Action {
	x := nn.NewMat(len(vacant), sim.FeatureSize)
	masks := make([][sim.NumActions]bool, len(vacant))
	for i, id := range vacant {
		obs := env.Observe(id)
		x.SetRow(i, obs.Features)
		masks[i] = obs.Mask
	}
	out := net.ForwardBatch(x, 1)
	acts := make(map[int]sim.Action, len(vacant))
	for i, id := range vacant {
		acts[id] = sim.ActionFromIndex(choose(src, out.Row(i), masks[i]))
	}
	return acts
}

// sampledChoice is FairMove's and TBA's choice: the masked softmax of the
// logits and one WeightedChoice.
func sampledChoice(src *rng.Source, logits []float32, mask [sim.NumActions]bool) int {
	probs := make([]float64, sim.NumActions)
	nn.SoftmaxInto(logits, mask[:], probs)
	return src.WeightedChoice(probs)
}

// epsGreedyChoice is DQN's choice at exploration rate eps: with
// probability eps a uniform pick from the collected valid actions,
// otherwise the first valid action of highest Q (action 0 when none is
// valid).
func epsGreedyChoice(eps float64) referenceChoice {
	return func(src *rng.Source, qs []float32, mask [sim.NumActions]bool) int {
		if src.Bool(eps) {
			var valid []int
			for i, ok := range mask {
				if ok {
					valid = append(valid, i)
				}
			}
			if len(valid) == 0 {
				return 0
			}
			return valid[src.Intn(len(valid))]
		}
		best, bestQ := 0, math.Inf(-1)
		for i, ok := range mask {
			if ok && float64(qs[i]) > bestQ {
				best, bestQ = i, float64(qs[i])
			}
		}
		return best
	}
}

// decideLearner is a network learner with its decide inputs exposed.
type decideLearner interface {
	policy.Policy
	BenchDecideState() (*nn.MLP, *rng.Source)
	SetTelemetry(r *telemetry.Registry)
}

// dropoutScenario is the golden station-outage fixture's events (station 1
// closed over minutes 420–720, one point of station 2 derated over
// 600–900) plus GPS-dropout windows inside the tested slots: one citywide,
// one on region 1 that starts earlier and ends later, so the slots see
// fresh, partly frozen and fully frozen observations.
func dropoutScenario(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.NewBuilder("station-outage+dropout").
		StationOutage(1, 420, 720).
		StationDerate(2, 1, 600, 900).
		GPSDropout(-1, decideFromMin+30, decideFromMin+60).
		GPSDropout(1, decideFromMin+10, decideFromMin+90).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

const (
	// decideFromMin is where the decided slots start: inside the fixture's
	// station-outage window. Earlier slots step with every taxi staying.
	decideFromMin = 420
	decideSlots   = 12
)

func TestDecideMatchesReferenceLoop(t *testing.T) {
	const exploreEps = 0.5
	newDQN := func(workers int) *policy.DQN {
		dqn := policy.NewDQN(0.6, 42)
		dqn.Workers = workers
		return dqn
	}
	newFairMove := func(workers int) *core.FairMove {
		cfg := core.DefaultConfig(0.6, 42)
		cfg.Workers = workers
		fm, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	learners := map[string]struct {
		build  func(workers int) decideLearner
		choose referenceChoice
	}{
		"FairMove": {func(workers int) decideLearner {
			return newFairMove(workers)
		}, sampledChoice},
		// NaN actor weights: every logit is NaN, so every row's softmax is
		// all zeros and its draw is the uniform Intn.
		"FairMove-NaN": {func(workers int) decideLearner {
			fm := newFairMove(workers)
			net, _ := fm.BenchDecideState()
			for _, l := range net.Layers {
				for i := range l.W.Data {
					l.W.Data[i] = float32(math.NaN())
				}
			}
			return fm
		}, sampledChoice},
		"TBA": {func(workers int) decideLearner {
			tba := policy.NewTBA(42)
			tba.Workers = workers
			return tba
		}, sampledChoice},
		"DQN": {func(workers int) decideLearner {
			return newDQN(workers)
		}, epsGreedyChoice(newDQN(1).EvalEpsilon)},
		"DQN-exploring": {func(workers int) decideLearner {
			dqn := newDQN(workers)
			dqn.BenchExplore(exploreEps)
			return dqn
		}, epsGreedyChoice(exploreEps)},
	}
	small := benchCity(t)
	for _, hooked := range []bool{false, true} {
		var spec *scenario.Spec
		name := "clean"
		if hooked {
			spec, name = dropoutScenario(t), "dropout"
		}
		for lname, l := range learners {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, lname, workers), func(t *testing.T) {
					checkDecide(t, l.build(workers), l.build(1), l.choose, small, spec, decideFromMin, decideSlots)
				})
			}
		}
	}
	// The paper's fleet from slot 0, when every taxi is vacant: the only
	// case whose blocks span several of the forward pass's 512-row tiles.
	full, err := synth.Build(synth.FullScaleConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	fm := learners["FairMove"]
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("full/FairMove/workers=%d", workers), func(t *testing.T) {
			checkDecide(t, fm.build(workers), fm.build(1), fm.choose, full, nil, 0, 3)
		})
	}
}

// checkDecide steps two environments of city, conditioned by spec when it
// is non-nil, with every taxi staying until minute from, then for slots
// slots decides each with got's Act and the reference loop over ref's net
// and stream, requiring the same actions, and checks got's decide timers.
func checkDecide(t *testing.T, got, ref decideLearner, choose referenceChoice, city *synth.City, spec *scenario.Spec, from, slots int) {
	t.Helper()
	newEnv := func() sim.Environment {
		env := sim.New(city, sim.DefaultOptions(1), 42)
		if spec != nil {
			if _, err := scenario.Attach(env, spec); err != nil {
				t.Fatal(err)
			}
		}
		env.Reset(42)
		for env.Now() < from {
			env.Step(nil)
		}
		return env
	}
	got.BeginEpisode(7)
	ref.BeginEpisode(7)
	envGot, envRef := newEnv(), newEnv()
	reg := telemetry.NewRegistry()
	envGot.SetTelemetry(reg)
	got.SetTelemetry(reg) // write-only: the actions must not move
	decided, busySlots := 0, 0
	for s := 0; s < slots && !envGot.Done(); s++ {
		vacant := append([]int(nil), envGot.VacantTaxis()...)
		acts := got.Act(envGot, vacant)
		net, src := ref.BenchDecideState()
		want := referenceDecide(envRef, net, src, envRef.VacantTaxis(), choose)
		if len(acts) != len(want) {
			t.Fatalf("slot %d: %d actions, reference %d", s, len(acts), len(want))
		}
		for id, a := range want {
			if acts[id] != a {
				t.Fatalf("slot %d taxi %d: action %+v, reference %+v", s, id, acts[id], a)
			}
		}
		checkObserveRows(t, envGot, vacant)
		decided += len(vacant)
		if len(vacant) > 0 {
			busySlots++
		}
		envGot.Step(acts)
		envRef.Step(want)
	}
	if decided == 0 {
		t.Fatal("no taxi decided in the tested slots")
	}
	if stale := reg.Counter("sim.hook.stale_obs").Value(); (spec != nil) != (stale > 0) {
		t.Fatalf("%d stale observations with hooks=%v", stale, spec != nil)
	}
	for _, name := range []string{"prepare", "observe", "forward", "sample"} {
		st := reg.Timer("policy.decide." + name).Stat()
		if st.Count != int64(busySlots) || st.TotalNs <= 0 {
			t.Errorf("policy.decide.%s: %d observations, %d ns over %d decided slots", name, st.Count, st.TotalNs, busySlots)
		}
	}
}

// checkObserveRows asserts that ObserveRows writes float32(Observe) rows and
// ValidMask masks for every vacant taxi. Both observations repeat the ones
// Act made this slot, so they leave the trajectory alone.
func checkObserveRows(t *testing.T, env sim.Environment, vacant []int) {
	t.Helper()
	feats := make([]float32, len(vacant)*sim.FeatureSize)
	masks := make([][sim.NumActions]bool, len(vacant))
	env.PrepareObserve(vacant)
	env.ObserveRows(vacant, feats, masks)
	for i, id := range vacant {
		obs := env.Observe(id)
		for j, x := range obs.Features {
			if got := feats[i*sim.FeatureSize+j]; got != float32(x) {
				t.Fatalf("taxi %d feature %d: ObserveRows %v, float32(Observe) %v", id, j, got, float32(x))
			}
		}
		if masks[i] != env.ValidMask(id) || masks[i] != obs.Mask {
			t.Fatalf("taxi %d: ObserveRows mask %v, ValidMask %v", id, masks[i], env.ValidMask(id))
		}
	}
}
