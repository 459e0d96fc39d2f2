// Outage demonstrates scenario-based failure injection: the busiest
// charging station goes down for the evening peak — composed with a demand
// surge in the same window — and the report shows how idle times and profit
// absorb the hit under uncoordinated drivers versus coordinated dispatch.
//
//	go run ./examples/outage
package main

import (
	"fmt"
	"log"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
)

func main() {
	city, err := synth.Build(synth.Config{
		Seed: 6, Regions: 50, Stations: 10, Fleet: 200,
		TripsPerDay: 15 * 200, SlotMinutes: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := sim.DefaultOptions(1)

	// Find the busiest station in a healthy baseline run.
	env := sim.New(city, opts, 6)
	base := policy.Evaluate(policy.NewGroundTruth(), env, 6)
	counts := map[int]int{}
	for _, ev := range base.ChargeStats {
		counts[ev.StationID]++
	}
	busiest, most := 0, 0
	for id, c := range counts {
		if c > most {
			busiest, most = id, c
		}
	}
	fmt.Printf("busiest station: CS-%03d with %d charging events\n\n", busiest, most)

	// Declare the fault schedule once; every policy below runs under the
	// byte-identical perturbation. An equivalent spec could be loaded from
	// JSON with scenario.Load and passed to `fairmove compare -scenario`.
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

	run := func(name string, p policy.Policy) {
		res := policy.Evaluate(p, env, 6)
		med, _ := stats.Median(res.IdleTimes())
		fmt.Printf("%-28s meanPE=%6.2f  median idle=%5.1f min  served=%d\n",
			name, metrics.FleetPE(res), med, res.ServedRequests)
	}

	baseIdle, _ := stats.Median(base.IdleTimes())
	fmt.Printf("%-28s meanPE=%6.2f  median idle=%5.1f min  served=%d\n",
		"GT, no outage", metrics.FleetPE(base), baseIdle, base.ServedRequests)
	run("GT, evening outage", policy.NewGroundTruth())
	run("Coordinator, evening outage", policy.NewCoordinator())

	fmt.Println("\nArrivals at the closed station divert to the least-loaded")
	fmt.Println("nearby alternative; coordinated dispatch absorbs the outage")
	fmt.Println("by routing charging demand around it in advance.")
}
