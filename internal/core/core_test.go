package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/policy"
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

// train runs Train without checkpoints over one-day episodes.
func train(t *testing.T, f *FairMove, city *synth.City, episodes int, seed int64) policy.TrainStats {
	t.Helper()
	stats, err := policy.Train(f, city, episodes, 1, seed, checkpoint.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(0.6, 1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Alpha = -0.1 },
		func(c *Config) { c.Alpha = 1.1 },
		func(c *Config) { c.Gamma = 1.0 },
		func(c *Config) { c.ActorLR = 0 },
		func(c *Config) { c.CriticLR = -1 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.UpdateIters = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(0.6, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{Alpha: 2}); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestActProducesValidActions(t *testing.T) {
	city := testCity(t, 1)
	f, err := New(DefaultConfig(0.6, 1))
	if err != nil {
		t.Fatal(err)
	}
	env := sim.New(city, sim.DefaultOptions(1), 1)
	res := policy.Evaluate(f, env, 1)
	if res.Slots != 144 {
		t.Fatalf("slots = %d", res.Slots)
	}
	if env.InvalidActions() > 0 {
		t.Fatalf("FairMove produced %d invalid actions", env.InvalidActions())
	}
}

// value is the critic's state-value estimate on one observation.
func value(f *FairMove, obs sim.Observation) float64 {
	return float64(f.critic.Forward1(obs.Features)[0])
}

// probs is the actor's masked policy distribution on one observation.
func probs(f *FairMove, obs sim.Observation) []float64 {
	return nn.Softmax(f.actor.Forward1(obs.Features), obs.Mask[:])
}

// perTaxiActor is the per-taxi rollout the batched one replaced: each
// vacant taxi is observed and sampled on its own, from probs with
// WeightedChoice on the learner's stream.
type perTaxiActor struct{ *FairMove }

func (p perTaxiActor) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	acts := make(map[int]sim.Action, len(vacant))
	for _, id := range vacant {
		acts[id] = sim.ActionFromIndex(p.src.WeightedChoice(probs(p.FairMove, env.Observe(id))))
	}
	return acts
}

// TestBatchedRolloutMatchesPerTaxi guards the training rollout's batched
// decide path: one episode driven by FairMove's Act (one observe pass, one
// batched forward and vacant-order sampling per slot) must close exactly
// the transitions of the same episode driven taxi by taxi through
// perTaxiActor with RunEpisode's perTaxi set.
func TestBatchedRolloutMatchesPerTaxi(t *testing.T) {
	city := testCity(t, 3)
	const seed = 17
	f, err := New(DefaultConfig(0.6, 3))
	if err != nil {
		t.Fatal(err)
	}
	rollout := func(pol policy.Policy, perTaxi bool) *policy.TransitionStore {
		env := sim.New(city, policy.EpisodeOptions(1, 1), seed)
		f.BeginEpisode(seed)
		var out policy.TransitionStore
		policy.RunEpisode(env, pol, perTaxi, f.cfg.Alpha, f.cfg.Gamma,
			func(id int, tr *policy.Transition) {
				if tr != nil {
					out.Add(tr)
				}
			})
		return &out
	}
	batched := rollout(f, false)
	perTaxi := rollout(perTaxiActor{f}, true)
	if batched.Len() == 0 {
		t.Fatal("the episode closed no transitions; the comparison would be vacuous")
	}
	if batched.Len() != perTaxi.Len() {
		t.Fatalf("batched rollout closed %d transitions, per-taxi %d", batched.Len(), perTaxi.Len())
	}
	for i := range batched.Len() {
		if a, b := batched.At(i), perTaxi.At(i); !reflect.DeepEqual(a, b) {
			t.Fatalf("transition %d differs:\nbatched  %+v\nper-taxi %+v", i, a, b)
		}
	}
}

func TestProbsRespectMask(t *testing.T) {
	f, err := New(DefaultConfig(0.6, 2))
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.Observation{Features: make([]float64, sim.FeatureSize)}
	obs.Mask[0] = true
	obs.Mask[7] = true
	p := probs(f, obs)
	var sum float64
	for i, v := range p {
		if !obs.Mask[i] && v != 0 {
			t.Fatalf("masked action %d has probability %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestTrainProducesStatsAndLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-episode training; skipped in short mode")
	}
	city := testCity(t, 3)
	f, err := New(DefaultConfig(0.6, 3))
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.Observation{Features: make([]float64, sim.FeatureSize)}
	for i := range obs.Mask {
		obs.Mask[i] = true
	}
	vBefore := value(f, obs)
	stats := train(t, f, city, 2, 3)
	if stats.Episodes != 2 || len(stats.MeanReward) != 2 || len(stats.CriticLoss) != 2 {
		t.Fatalf("stats shape wrong: %+v", stats)
	}
	if stats.Transitions == 0 {
		t.Fatal("no transitions collected")
	}
	if value(f, obs) == vBefore {
		t.Fatal("critic unchanged by training")
	}
	for _, l := range stats.CriticLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("critic loss invalid: %v", l)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-episode training; skipped in short mode")
	}
	city := testCity(t, 4)
	run := func() []float64 {
		f, err := New(DefaultConfig(0.6, 4))
		if err != nil {
			t.Fatal(err)
		}
		return train(t, f, city, 2, 4).MeanReward
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic: %v vs %v", a, b)
		}
	}
}

func TestAlphaOneIgnoresFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-episode training; skipped in short mode")
	}
	// With α=1 the reward is pure profit; with α=0 pure fairness. Both must
	// train without error — the boundary cases of Table IV.
	city := testCity(t, 6)
	for _, alpha := range []float64{0, 1} {
		f, err := New(DefaultConfig(alpha, 6))
		if err != nil {
			t.Fatal(err)
		}
		stats := train(t, f, city, 1, 6)
		if len(stats.MeanReward) != 1 || math.IsNaN(stats.MeanReward[0]) {
			t.Fatalf("alpha=%v training failed: %+v", alpha, stats)
		}
	}
}
