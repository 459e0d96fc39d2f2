package fairmove_test

import (
	"fmt"
	"log"

	fairmove "repro"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
)

// A tiny city, so the example trains in a second: 60 taxis with regions,
// stations and demand scaled to the paper's ratios. FairMove is trained
// (teacher warm start, then CMA2C) and compared with the uncoordinated
// ground-truth drivers on identical demand.
func ExampleSystem_TrainWithOptions() {
	cfg := fairmove.DefaultConfig(7)
	cfg.Fleet = 60
	cfg.Days = 1
	cfg.PretrainEpisodes, cfg.TrainEpisodes = 1, 1
	sys, err := fairmove.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.TrainWithOptions(fairmove.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fine-tune episodes: %d, transitions: %d\n", rep.Episodes, rep.Transitions)
	for _, m := range []fairmove.Method{fairmove.GT, fairmove.FairMove} {
		r, err := sys.Evaluate(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s meanPE=%.2f CNY/h PF=%.2f served=%d/%d\n",
			r.Method, r.MeanPE, r.PF, r.ServedRequests, r.ServedRequests+r.UnservedRequests)
	}
	// Output:
	// fine-tune episodes: 1, transitions: 3130
	// GT       meanPE=35.59 CNY/h PF=81.56 served=466/863
	// FairMove meanPE=37.59 CNY/h PF=73.30 served=453/862
}

// Section V's extension: drivers fall into performance tiers (the
// "five-star rating" groups taxi companies assign), and a veteran
// out-earning a novice is not unfair, so profit fairness is judged within
// each group — under uncoordinated drivers and under the coordinated
// fairness-aware dispatcher.
func Example_driverGroups() {
	city, err := synth.Build(synth.MicroConfig(5))
	if err != nil {
		log.Fatal(err)
	}
	opts := sim.DefaultOptions(2)
	opts.WarmupDays = 1
	env := sim.New(city, opts, 5)
	for _, p := range []policy.Policy{policy.NewGroundTruth(), policy.NewCoordinator()} {
		res := policy.Evaluate(p, env, 5)
		assign, err := metrics.StarGroupsByPE(res, 5)
		if err != nil {
			log.Fatal(err)
		}
		groups := metrics.WithinGroupFairness(res, assign)
		fmt.Printf("%s: fleet PF=%.2f, within-group mean PF=%.2f\n",
			p.Name(), metrics.ProfitFairness(res), metrics.MeanWithinGroupPF(groups))
		for _, g := range groups {
			fmt.Printf("  %d★ n=%d meanPE=%.2f PF=%.2f\n", g.Group+1, g.N, g.MeanPE, g.PF)
		}
	}
	// Output:
	// GT: fleet PF=27.99, within-group mean PF=2.32
	//   1★ n=5 meanPE=24.60 PF=2.82
	//   2★ n=5 meanPE=28.63 PF=0.61
	//   3★ n=4 meanPE=31.38 PF=0.45
	//   4★ n=5 meanPE=35.02 PF=2.47
	//   5★ n=5 meanPE=38.93 PF=4.87
	// Coordinator: fleet PF=18.25, within-group mean PF=2.68
	//   1★ n=5 meanPE=31.93 PF=2.25
	//   2★ n=5 meanPE=34.20 PF=0.12
	//   3★ n=4 meanPE=35.94 PF=0.11
	//   4★ n=5 meanPE=38.47 PF=1.44
	//   5★ n=5 meanPE=43.19 PF=8.95
}

// Scenario-based failure injection: the busiest charging station goes dark
// for the evening peak, composed with a demand surge in the same window,
// and every policy runs under the byte-identical fault schedule. An
// equivalent spec could be loaded from JSON with scenario.Load and passed
// to `fairmove compare -scenario`.
func Example_outage() {
	city, err := synth.Build(synth.MicroConfig(6))
	if err != nil {
		log.Fatal(err)
	}
	env := sim.New(city, sim.DefaultOptions(1), 6)
	show := func(name string, res *sim.Results) {
		idle, _ := stats.Median(res.IdleTimes())
		fmt.Printf("%-27s meanPE=%.2f median idle=%.1f min served=%d\n",
			name, metrics.FleetPE(res), idle, res.ServedRequests)
	}

	// Find the busiest station in a healthy baseline run.
	base := policy.Evaluate(policy.NewGroundTruth(), env, 6)
	counts := map[int]int{}
	for _, ev := range base.ChargeStats {
		counts[ev.StationID]++
	}
	busiest := 0
	for id, c := range counts {
		if c > counts[busiest] || c == counts[busiest] && id < busiest {
			busiest = id
		}
	}
	fmt.Printf("busiest station: CS-%03d with %d charging events\n", busiest, counts[busiest])
	show("GT, no outage", base)

	spec, err := scenario.NewBuilder("evening-outage").
		Describe("busiest station dark 16:00-22:00 under a 1.5x evening surge").
		StationOutage(busiest, 16*60, 22*60).
		DemandSurge(-1, 17*60, 21*60, 1.5).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := scenario.Attach(env, spec); err != nil {
		log.Fatal(err)
	}
	show("GT, evening outage", policy.Evaluate(policy.NewGroundTruth(), env, 6))
	show("Coordinator, evening outage", policy.Evaluate(policy.NewCoordinator(), env, 6))
	// Output:
	// busiest station: CS-002 with 15 charging events
	// GT, no outage               meanPE=29.27 median idle=50.0 min served=198
	// GT, evening outage          meanPE=32.26 median idle=44.0 min served=202
	// Coordinator, evening outage meanPE=38.03 median idle=34.0 min served=220
}
