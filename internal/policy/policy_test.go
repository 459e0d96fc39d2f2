package policy

import (
	"math"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synth"
)

func testCity(t *testing.T, seed int64) *synth.City {
	t.Helper()
	city, err := synth.Build(synth.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// pretrain runs Pretrain without checkpoints: episodes one-day
// demonstration episodes driven by guide.
func pretrain(t *testing.T, l Learner, city *synth.City, guide Policy, episodes int, seed int64) {
	t.Helper()
	if err := Pretrain(l, city, guide, episodes, 1, seed, checkpoint.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
}

// train runs Train without checkpoints over one-day episodes.
func train(t *testing.T, l Learner, city *synth.City, episodes int, seed int64) TrainStats {
	t.Helper()
	stats, err := Train(l, city, episodes, 1, seed, checkpoint.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestEvaluateRunsAllPolicies(t *testing.T) {
	city := testCity(t, 1)
	env := sim.New(city, sim.DefaultOptions(1), 1)
	policies := []Policy{NewGroundTruth(), NewSD2(), NewTQL(0.6), NewDQN(0.6, 1), NewTBA(1)}
	for _, p := range policies {
		res := Evaluate(p, env, 1)
		if res.Slots != 144 {
			t.Fatalf("%s: slots = %d", p.Name(), res.Slots)
		}
		if res.ServedRequests == 0 {
			t.Fatalf("%s: served no requests", p.Name())
		}
		if env.InvalidActions() > 0 {
			t.Fatalf("%s: produced %d invalid actions", p.Name(), env.InvalidActions())
		}
	}
}

func TestEvaluateSameSeedSameDemand(t *testing.T) {
	city := testCity(t, 2)
	env := sim.New(city, sim.DefaultOptions(1), 1)
	a := Evaluate(NewGroundTruth(), env, 5)
	total1 := a.ServedRequests + a.UnservedRequests
	b := Evaluate(NewSD2(), env, 5)
	total2 := b.ServedRequests + b.UnservedRequests
	if total1 != total2 {
		t.Fatalf("same seed produced different demand volumes: %d vs %d", total1, total2)
	}
}

func TestGroundTruthChargesOffPeak(t *testing.T) {
	city := testCity(t, 3)
	env := sim.New(city, sim.DefaultOptions(2), 3)
	res := Evaluate(NewGroundTruth(), env, 3)
	if len(res.ChargeStats) == 0 {
		t.Skip("no charging in this short run")
	}
	// Opportunistic cheap charging should put a visible share of plug-ins
	// into the off-peak hours 2-5, 12-13, 17 (Fig. 4 behavior).
	offPeak := 0
	total := 0
	for h, c := range res.ChargeStartsByHour {
		total += c
		if (h >= 2 && h < 6) || h == 12 || h == 13 || h == 17 {
			offPeak += c
		}
	}
	if total == 0 {
		t.Skip("no plug-ins recorded")
	}
	frac := float64(offPeak) / float64(total)
	// Off-peak hours are 7 of 24 = 29% of the day; behavior should push the
	// share above that.
	if frac < 0.3 {
		t.Errorf("off-peak plug-in share %.2f; cheap-charging habit not visible", frac)
	}
}

func TestSD2AlwaysNearestStation(t *testing.T) {
	city := testCity(t, 4)
	env := sim.New(city, sim.DefaultOptions(1), 4)
	env.Reset(4)
	sd2 := NewSD2()
	sd2.BeginEpisode(4)
	// Force a low-SoC taxi and confirm the action targets station rank 0.
	vacant := env.VacantTaxis()
	id := vacant[0]
	// Drain its battery through the public-ish path: run Act with the SoC
	// as built; directly checking the decision rule instead.
	actions := sd2.Act(env, []int{id})
	a := actions[id]
	if env.TaxiSoC(id) < sim.LowSoC && (a.Kind != sim.Charge || a.Arg != 0) {
		t.Fatalf("low-SoC SD2 action = %v, want charge(0)", a)
	}
	// All actions must be valid kinds.
	for _, a := range actions {
		if a.Kind != sim.Stay && a.Kind != sim.Move && a.Kind != sim.Charge {
			t.Fatalf("invalid action kind %v", a.Kind)
		}
	}
}

func TestSD2MovesTowardDemand(t *testing.T) {
	city := testCity(t, 5)
	env := sim.New(city, sim.DefaultOptions(1), 5)
	env.Reset(5)
	sd2 := NewSD2()
	// Step a few slots; SD2 should produce at least some Move actions over a
	// day (taxis in dead zones walk toward demand).
	moves := 0
	for i := 0; i < 36 && !env.Done(); i++ {
		vacant := env.VacantTaxis()
		acts := sd2.Act(env, vacant)
		for _, a := range acts {
			if a.Kind == sim.Move {
				moves++
			}
		}
		env.Step(acts)
	}
	if moves == 0 {
		t.Error("SD2 never moved toward demand in 6 hours")
	}
}

func TestTQLTrainingImprovesTable(t *testing.T) {
	city := testCity(t, 6)
	tql := NewTQL(0.6)
	stats := train(t, tql, city, 2, 6)
	if stats.Episodes != 2 || len(stats.MeanReward) != 2 {
		t.Fatalf("train stats wrong: %+v", stats)
	}
	if stats.StatesVisited == 0 {
		t.Fatal("Q-table empty after training")
	}
	// After training, greedy evaluation must run cleanly.
	env := sim.New(city, sim.DefaultOptions(1), 6)
	res := Evaluate(tql, env, 6)
	if res.ServedRequests == 0 {
		t.Fatal("trained TQL served nothing")
	}
}

func TestDQNLearnChangesWeights(t *testing.T) {
	city := testCity(t, 7)
	dqn := NewDQN(0.6, 7)
	before := dqn.net.Clone()
	train(t, dqn, city, 1, 7)
	x := make([]float64, sim.FeatureSize)
	for i := range x {
		x[i] = 0.1
	}
	a := before.Forward1(x)
	b := dqn.net.Forward1(x)
	changed := false
	for i := range a {
		if a[i] != b[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("DQN training did not move the network")
	}
}

func TestDQNRespectsMaskInGreedy(t *testing.T) {
	dqn := NewDQN(0.6, 8)
	obs := sim.Observation{Features: make([]float64, sim.FeatureSize)}
	// Only action 3 valid.
	obs.Mask[3] = true
	greedy, _ := maskedArgmax(dqn.net.Forward1(obs.Features), obs.Mask)
	if got := epsGreedy(dqn.src, greedy, obs.Mask, dqn.EvalEpsilon); got != 3 {
		t.Fatalf("masked greedy chose %d, want 3", got)
	}
}

// sliceEpsGreedy is the ε-greedy choice that collects the valid actions
// into a slice and indexes it: the reference epsGreedy's in-place walk must
// match.
func sliceEpsGreedy(src *rng.Source, qs []float32, mask [sim.NumActions]bool, eps float64) int {
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
	a, _ := maskedArgmax(qs, mask)
	return a
}

// TestEpsGreedyMatchesSliceReference checks epsGreedy against the
// slice-based choice on random masks (all-false and all-true included) and
// Q-rows: the same action, and the stream left at the same position.
func TestEpsGreedyMatchesSliceReference(t *testing.T) {
	g := rng.New(2042)
	qs := make([]float32, sim.NumActions)
	for trial := 0; trial < 20000; trial++ {
		var mask [sim.NumActions]bool
		switch trial % 8 {
		case 0: // all false
		case 1:
			for i := range mask {
				mask[i] = true
			}
		default:
			for i := range mask {
				mask[i] = g.Bool(0.5)
			}
		}
		for i := range qs {
			qs[i] = float32(g.Uniform(-1, 1))
		}
		for _, eps := range []float64{0, 0.03, 0.5, 1} {
			seed := int64(g.Uint64() &^ (1 << 63)) // non-negative 63-bit seed
			ref, got := rng.New(seed), rng.New(seed)
			want := sliceEpsGreedy(ref, qs, mask, eps)
			greedy, _ := maskedArgmax(qs, mask)
			if a := epsGreedy(got, greedy, mask, eps); a != want {
				t.Fatalf("trial %d eps %v mask %v: epsGreedy %d, reference %d", trial, eps, mask, a, want)
			}
			if got.Uint64() != ref.Uint64() {
				t.Fatalf("trial %d eps %v mask %v: stream misaligned", trial, eps, mask)
			}
		}
	}
}

// TestEpsGreedyAllocatesNothing pins the exploring draw at zero
// allocations.
func TestEpsGreedyAllocatesNothing(t *testing.T) {
	src := rng.New(5)
	var mask [sim.NumActions]bool
	mask[2], mask[7], mask[11] = true, true, true
	if allocs := testing.AllocsPerRun(100, func() { epsGreedy(src, 2, mask, 1) }); allocs != 0 {
		t.Fatalf("exploring epsGreedy allocates %v/op, want 0", allocs)
	}
}

// TestTBASamplesValidActions drives TBA's Act over the first slots of a
// small city and requires every sampled action to be valid under the
// taxi's mask. Some masks must exclude actions, or the check is vacuous.
func TestTBASamplesValidActions(t *testing.T) {
	env := sim.New(testCity(t, 9), sim.DefaultOptions(1), 9)
	tba := NewTBA(9)
	tba.BeginEpisode(9)
	var sampled, restricted int
	for slot := 0; slot < 12 && !env.Done(); slot++ {
		vacant := env.VacantTaxis()
		acts := tba.Act(env, vacant)
		for _, id := range vacant {
			a, ok := acts[id]
			if !ok {
				t.Fatalf("slot %d: no action for vacant taxi %d", slot, id)
			}
			mask := env.ValidMask(id)
			if !mask[sim.ActionIndex(a)] {
				t.Fatalf("slot %d: taxi %d sampled masked action %+v", slot, id, a)
			}
			sampled++
			for _, valid := range mask {
				if !valid {
					restricted++
					break
				}
			}
		}
		env.Step(acts)
	}
	if sampled == 0 || restricted == 0 {
		t.Fatalf("%d samples, %d under a restricting mask: the check is vacuous", sampled, restricted)
	}
}

func TestTBATrainRuns(t *testing.T) {
	city := testCity(t, 10)
	tba := NewTBA(10)
	stats := train(t, tba, city, 1, 10)
	if len(stats.MeanReward) != 1 {
		t.Fatalf("train stats wrong: %+v", stats)
	}
	env := sim.New(city, sim.DefaultOptions(1), 10)
	res := Evaluate(tba, env, 10)
	if res.ServedRequests == 0 {
		t.Fatal("trained TBA served nothing")
	}
}

// TestRunEpisodeTransitionsWellFormed checks every transition RunEpisode
// closes, on a clean run and under a station outage composed with a
// citywide GPS dropout: field ranges, a terminal at the horizon, and rows
// and masks that are exactly what the taxi saw — each Obs and NextObs row
// float32 of Observe for that taxi at that decision, each mask ValidMask.
func TestRunEpisodeTransitionsWellFormed(t *testing.T) {
	const dropFrom, dropTo = 6 * 60, 9 * 60
	outage, err := scenario.NewBuilder("outage-dropout").
		StationOutage(0, 0, 24*60).
		GPSDropout(-1, dropFrom, dropTo).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec *scenario.Spec
	}{{"clean", nil}, {"outage+dropout", outage}} {
		t.Run(tc.name, func(t *testing.T) {
			city := testCity(t, 11)
			env := sim.New(city, sim.DefaultOptions(1), 11)
			if tc.spec != nil {
				if _, err := scenario.Attach(env, tc.spec); err != nil {
					t.Fatal(err)
				}
			}
			env.Reset(11)
			// seen holds float32 of each taxi's Observe at its last decision
			// and the mask there: the Obs and Mask of its open transition.
			seen := make([][]float32, len(city.Fleet))
			seenMask := make([][sim.NumActions]bool, len(city.Fleet))
			var n, terminals, underDropout int
			mean := RunEpisode(env, firstValid{}, false, 0.6, 0.9,
				func(id int, tr *Transition) {
					var now []float32
					var mask [sim.NumActions]bool
					if !env.Done() {
						obs := env.Observe(id)
						now = make([]float32, len(obs.Features))
						for j, x := range obs.Features {
							now[j] = float32(x)
						}
						mask = env.ValidMask(id)
						if obs.Mask != mask {
							t.Fatalf("taxi %d: Observe mask %v, ValidMask %v", id, obs.Mask, mask)
						}
						if env.Now() >= dropFrom && env.Now() < dropTo {
							underDropout++
						}
					}
					if tr != nil {
						n++
						checkTransition(t, id, tr, seen[id], seenMask[id], now, mask)
						if tr.Terminal {
							terminals++
						}
					}
					seen[id], seenMask[id] = now, mask
				},
			)
			if n == 0 {
				t.Fatal("no transitions")
			}
			if terminals == 0 {
				t.Fatal("no terminal transitions at horizon")
			}
			if tc.spec != nil && underDropout == 0 {
				t.Fatal("no decision fell inside the GPS dropout; the case is vacuous")
			}
			if math.IsNaN(mean) {
				t.Fatal("NaN mean reward")
			}
		})
	}
}

// checkTransition checks one closed transition of taxi id against what the
// taxi saw: obs and mask at the decision that opened it, next and nextMask
// at the decision that closed it (unused for a terminal).
func checkTransition(t *testing.T, id int, tr *Transition, obs []float32, mask [sim.NumActions]bool, next []float32, nextMask [sim.NumActions]bool) {
	t.Helper()
	if len(tr.Obs) != sim.FeatureSize {
		t.Fatalf("obs width %d", len(tr.Obs))
	}
	if !slices.Equal(tr.Obs, obs) || tr.Mask != mask {
		t.Fatalf("taxi %d: recorded Obs/Mask differ from Observe at the opening decision", id)
	}
	if tr.Action < 0 || tr.Action >= sim.NumActions {
		t.Fatalf("action %d out of range", tr.Action)
	}
	if tr.Elapsed < 1 {
		t.Fatalf("elapsed %d < 1", tr.Elapsed)
	}
	if !tr.Mask[tr.Action] {
		t.Fatal("transition action was masked")
	}
	if tr.Terminal {
		if tr.NextObs != nil {
			t.Fatal("terminal transition has next obs")
		}
	} else if len(tr.NextObs) != sim.FeatureSize {
		t.Fatal("non-terminal transition missing next obs")
	} else if !slices.Equal(tr.NextObs, next) || tr.NextMask != nextMask {
		t.Fatalf("taxi %d: recorded NextObs/NextMask differ from Observe at the closing decision", id)
	}
	if math.IsNaN(tr.Reward) || math.IsInf(tr.Reward, 0) {
		t.Fatalf("bad reward %v", tr.Reward)
	}
}

func TestSlotRewardAlphaBoundaries(t *testing.T) {
	city := testCity(t, 12)
	env := sim.New(city, sim.DefaultOptions(1), 12)
	env.Reset(12)
	env.Step(nil)
	_, pf := env.FleetPEStats()
	id := 0
	// α=1: pure profit efficiency; α=0: pure (negated) unfairness.
	r1 := SlotReward(env, id, 1, pf)
	r0 := SlotReward(env, id, 0, pf)
	slotHours := float64(env.SlotLen()) / 60
	wantR1 := env.SlotProfit(id) / slotHours * RewardScale
	if math.Abs(r1-wantR1) > 1e-12 {
		t.Fatalf("alpha=1 reward %v, want %v", r1, wantR1)
	}
	if math.Abs(r0-(-pf*RewardScale)) > 1e-12 {
		t.Fatalf("alpha=0 reward %v, want %v", r0, -pf*RewardScale)
	}
}
