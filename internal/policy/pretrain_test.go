package policy

import (
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/sim"
)

// TestCollectDemosFollowsGuide: the demonstrations record, taxi by taxi,
// exactly the decisions the guide makes when it drives the same episode
// through NewRunner at that episode's DemoEpisodeSeed. A taxi's transition
// closes at its next decision (in the slot's vacant order) or at the
// horizon (in taxi order), which fixes where each decision lands in the
// demonstration buffer.
func TestCollectDemosFollowsGuide(t *testing.T) {
	city := testCity(t, 40)
	const seed, episodes = 40, 2
	demos := collectDemos(Training{Workers: 2, Alpha: 0.6, Gamma: 0.9}, city, NewCoordinator(), 0, episodes, 1, seed)
	for ep, buf := range demos {
		got := make([]int, buf.Len())
		for i := range got {
			got[i] = buf.At(i).Action
		}
		epSeed := DemoEpisodeSeed(seed, ep)
		env := sim.New(city, EpisodeOptions(1, 1), epSeed)
		r := NewRunner(NewCoordinator(), env, epSeed)
		var want []int
		last := make([]int, len(city.Fleet))
		for i := range last {
			last[i] = -1
		}
		for !r.Done() {
			for _, d := range r.StepSlot() {
				if last[d.Taxi] >= 0 {
					want = append(want, last[d.Taxi])
				}
				last[d.Taxi] = sim.ActionIndex(d.Action)
			}
		}
		for _, a := range last {
			if a >= 0 {
				want = append(want, a)
			}
		}
		if env.InvalidActions() != 0 {
			t.Fatalf("episode %d: the guide made %d invalid decisions; recorded actions would be coerced", ep, env.InvalidActions())
		}
		if len(want) == 0 {
			t.Fatalf("episode %d: no decisions", ep)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("episode %d: %d demonstration actions differ from the guide's %d decisions", ep, len(got), len(want))
		}
	}
}

func TestTQLPretrainSeedsTable(t *testing.T) {
	city := testCity(t, 41)
	tql := NewTQL(0.6)
	pretrain(t, tql, city, NewGroundTruth(), 1, 41)
	if len(tql.q) == 0 {
		t.Fatal("pretrain left the Q-table empty")
	}
	// Pessimistic init: entries must exist with values pulled up from -1.
	anyAbove := false
	for _, qs := range tql.q {
		for _, v := range qs {
			if v > tqlInitQ {
				anyAbove = true
			}
		}
	}
	if !anyAbove {
		t.Fatal("no Q-value was ever updated above the pessimistic floor")
	}
}

func TestDQNPretrainFillsReplay(t *testing.T) {
	city := testCity(t, 42)
	dqn := NewDQN(0.6, 42)
	pretrain(t, dqn, city, NewGroundTruth(), 1, 42)
	if dqn.replay.Len() == 0 {
		t.Fatal("pretrain left the replay buffer empty")
	}
	// Offline learning must have moved the network.
	fresh := NewDQN(0.6, 42)
	x := make([]float64, sim.FeatureSize)
	for i := range x {
		x[i] = 0.2
	}
	a := fresh.net.Forward1(x)
	b := dqn.net.Forward1(x)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pretrain did not change the Q-network")
	}
}

func TestTBAPretrainClonesTeacher(t *testing.T) {
	city := testCity(t, 43)
	tba := NewTBA(43)
	pretrain(t, tba, city, NewCoordinator(), 1, 43)
	if tba.demo.Len() == 0 {
		t.Fatal("pretrain kept no demonstration transitions")
	}
	// After cloning a mostly-staying teacher, "stay" should carry large
	// probability mass on a typical healthy-taxi observation.
	env := sim.New(city, sim.DefaultOptions(1), 43)
	env.Reset(43)
	var sum float64
	var n int
	for _, id := range env.VacantTaxis() {
		obs := env.Observe(id)
		if !obs.Mask[0] {
			continue
		}
		logits := tba.net.Forward1(obs.Features)
		p := softmaxAt(logits, obs.Mask[:], 0)
		sum += p
		n++
	}
	if n == 0 {
		t.Skip("no stay-valid observations")
	}
	if mean := sum / float64(n); mean < 0.2 {
		t.Errorf("mean stay probability %.3f after cloning a stay-heavy teacher", mean)
	}
}

func softmaxAt(logits []float32, mask []bool, idx int) float64 {
	p := nn.Softmax(logits, mask)
	if idx < 0 || idx >= len(p) {
		return 0
	}
	return p[idx]
}
