package sim_test

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synth"
)

// naiveFleetStats recomputes the fleet aggregates the way the engine did
// before they shared one walk: a two-pass PE rescan over the accounts, a
// supply count and a state count, each its own pass over the fleet through
// the public read surface.
func naiveFleetStats(env *sim.Core) (mean, variance float64, supply []int, vacant, queued int) {
	accts := env.Results().Accounts
	var n int
	for i := range accts {
		if accts[i].OnDutyMin() > 0 {
			mean += env.PESoFar(i)
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
		for i := range accts {
			if accts[i].OnDutyMin() > 0 {
				d := env.PESoFar(i) - mean
				variance += d * d
			}
		}
		variance /= float64(n)
	}
	supply = make([]int, env.City().Partition.Len())
	for i := range accts {
		if env.TaxiState(i) == sim.Cruising {
			supply[env.TaxiRegion(i)]++
		}
	}
	for i := range accts {
		switch env.TaxiState(i) {
		case sim.Cruising:
			vacant++
		case sim.Queued, sim.ToStation:
			queued++
		}
	}
	return mean, variance, supply, vacant, queued
}

// TestFleetWalkMatchesNaiveReference pins the one fleet walk behind
// FleetPEStats and the observation supply/state features bit for bit
// against naiveFleetStats, every slot of an episode that crosses the
// warm-up boundary, where every account is zeroed. The golden
// station-outage and airport-surge fixtures (an outage, a derate, a shift
// change, a battery cohort) run with one more shift change across the
// boundary, so some taxis start the accounted day off duty. FleetPEStats is
// read in every slot, the boundary's predecessor included, so a PE cache
// that outlived the boundary would be caught in its first slot.
func TestFleetWalkMatchesNaiveReference(t *testing.T) {
	const seed = 42
	var events []scenario.Event
	for _, name := range []string{"station-outage", "airport-surge"} {
		spec, err := scenario.Load(filepath.Join("..", "scenario", "testdata", "scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, spec.Events...)
	}
	const warmupEnd = 24 * 60
	boundary, err := scenario.NewBuilder("boundary").ShiftChange(2, 0, warmupEnd-60, warmupEnd+120).Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := &scenario.Spec{Name: "fleet-walk", Events: append(events, boundary.Events...)}

	for _, shards := range []int{1, 2} {
		city, err := synth.Build(synth.MicroConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := range city.Fleet {
			city.Fleet[i].InitialSoC = 0.3
		}
		opts := sim.DefaultOptions(1)
		opts.WarmupDays = 1
		opts.Shards = shards
		env := sim.New(city, opts, seed)
		if _, err := scenario.Attach(env, spec); err != nil {
			t.Fatal(err)
		}
		r := policy.NewRunner(policy.NewGroundTruth(), env, seed)
		crossed, onDutyAfter := false, false
		for !r.Done() {
			slot := env.Slot()
			wantMean, wantVar, wantSupply, wantVacant, wantQueued := naiveFleetStats(env)
			for rep := 0; rep < 2; rep++ { // the second read is the cached one
				mean, variance := env.FleetPEStats()
				if mean != wantMean || variance != wantVar {
					t.Fatalf("shards=%d slot %d read %d: FleetPEStats = (%v, %v), naive (%v, %v)",
						shards, slot, rep, mean, variance, wantMean, wantVar)
				}
				supply, vacant, queued := env.FleetAggregates()
				if !slices.Equal(supply, wantSupply) || vacant != wantVacant || queued != wantQueued {
					t.Fatalf("shards=%d slot %d read %d: supply %v vacant %d queued %d, naive %v %d %d",
						shards, slot, rep, supply, vacant, queued, wantSupply, wantVacant, wantQueued)
				}
			}
			if env.Now() == warmupEnd {
				crossed = true
				if wantMean != 0 || wantVar != 0 {
					t.Fatalf("shards=%d: fleet PE (%v, %v) at the warm-up boundary, want (0, 0) after the accounts were cleared",
						shards, wantMean, wantVar)
				}
			}
			if crossed && wantMean != 0 {
				onDutyAfter = true
			}
			r.StepSlot()
		}
		if !crossed || !onDutyAfter {
			t.Fatalf("shards=%d: episode crossed the warm-up boundary %t, earned PE after it %t; want both", shards, crossed, onDutyAfter)
		}
	}
}
