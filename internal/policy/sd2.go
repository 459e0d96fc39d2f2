package policy

import (
	"repro/internal/sim"
)

// SD2 is the Shortest Distance based Displacement baseline [21]: every
// vacant taxi is displaced toward its nearest waiting passengers and charges
// at its nearest station, with no learning and no long-term view. As the
// paper notes, its weakness is herding — many nearby taxis pick the same
// nearest station, overcrowding it and *prolonging* idle time (negative
// PRIT in Table III).
type SD2 struct{}

// NewSD2 returns the baseline.
func NewSD2() *SD2 { return &SD2{} }

// Name implements Policy.
func (s *SD2) Name() string { return "SD2" }

// BeginEpisode implements Policy.
func (s *SD2) BeginEpisode(int64) {}

// Act implements Policy.
func (s *SD2) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	city := env.City()
	n := city.Partition.Len()
	now := env.Now()
	slot := env.SlotLen()

	// Per-slot precomputation: vacant supply and expected demand per region,
	// then one multi-source BFS from every surplus-demand region giving each
	// region its hop distance to the nearest passenger surplus.
	supply := make([]int, n)
	for _, id := range vacant {
		supply[env.TaxiRegion(id)]++
	}
	demand := make([]float64, n)
	dist := make([]int, n)
	var frontier []int
	for r := 0; r < n; r++ {
		demand[r] = city.Demand.ExpectedSlotDemand(r, now, slot)
		dist[r] = -1
		if demand[r] > float64(supply[r]) {
			dist[r] = 0
			frontier = append(frontier, r)
		}
	}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, nb := range city.Partition.Region(cur).Neighbors {
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				frontier = append(frontier, nb)
			}
		}
	}

	actions := make(map[int]sim.Action, len(vacant))
	for _, id := range vacant {
		if env.TaxiSoC(id) < sim.LowSoC {
			// Nearest station, always — the defining SD2 move.
			actions[id] = sim.Action{Kind: sim.Charge, Arg: 0}
			continue
		}
		region := env.TaxiRegion(id)
		// Enough local demand (or no reachable surplus): keep cruising here.
		if demand[region] >= 0.5 || dist[region] <= 0 {
			actions[id] = sim.Action{Kind: sim.Stay}
			continue
		}
		// Step toward the nearest surplus region: any neighbor one hop
		// closer on the BFS field.
		nbs := city.Partition.Region(region).Neighbors
		move := sim.Action{Kind: sim.Stay}
		for i, nb := range nbs {
			if i >= sim.MaxNeighbors {
				break
			}
			if dist[nb] >= 0 && dist[nb] < dist[region] {
				move = sim.Action{Kind: sim.Move, Arg: i}
				break
			}
		}
		actions[id] = move
	}
	return actions
}
