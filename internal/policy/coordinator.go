package policy

import (
	"sort"

	"repro/internal/pricing"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Coordinator is a centralized dispatching heuristic: it balances vacant
// supply against forecast demand region by region, assigns surplus taxis
// one hop toward the largest nearby deficit, staggers charging into cheap
// tariff bands when stations have spare points, and picks stations by
// expected wait rather than pure distance.
//
// It serves two roles. First, it is the demonstration teacher for the
// learned policies: the paper trains its networks on a month of fleet data,
// which at repro scale we substitute with teacher-guided warm starts before
// reward-driven fine-tuning (see DESIGN.md §2). Second, with FairShare
// toggled it is the ablation for the fairness mechanism: when FairShare is
// set, taxis with the lowest earnings so far get first pick of the good
// displacement targets, which is the behavioral content of the paper's
// fairness-aware objective.
type Coordinator struct {
	// FairShare gives low-PE taxis priority on favorable assignments.
	FairShare bool

	src *rng.Source
}

// preChargeProb is the chance an eligible taxi is sent to pre-charge during
// an off-peak band with spare station capacity.
const preChargeProb = 0.4

// NewCoordinator returns the fairness-aware coordinated heuristic.
func NewCoordinator() *Coordinator {
	return &Coordinator{FairShare: true, src: rng.New(0)}
}

// Name implements Policy.
func (c *Coordinator) Name() string {
	if c.FairShare {
		return "Coordinator"
	}
	return "Coordinator-NoFair"
}

// BeginEpisode implements Policy.
func (c *Coordinator) BeginEpisode(seed int64) { c.src = rng.SplitStable(seed, "coordinator") }

// CloneForWorker implements Cloner: the coordinator's only mutable state is
// its rng stream, and BeginEpisode re-derives that from the episode seed, so
// a clone driving an episode behaves exactly like the original would.
func (c *Coordinator) CloneForWorker() Policy {
	return &Coordinator{FairShare: c.FairShare, src: rng.New(0)}
}

// Act implements Policy.
func (c *Coordinator) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	city := env.City()
	n := city.Partition.Len()
	now := env.Now()
	slot := env.SlotLen()
	band := city.Tariff.BandAt(now)

	// Net demand pressure per region: forecast minus vacant supply.
	gap := make([]float64, n)
	for r := 0; r < n; r++ {
		gap[r] = city.Demand.ExpectedSlotDemand(r, now, slot)
	}
	actions := make(map[int]sim.Action, len(vacant))

	// First pass: charging decisions; the rest bucket by region.
	byRegion := make(map[int][]int)
	for _, id := range vacant {
		soc := env.TaxiSoC(id)
		region := env.TaxiRegion(id)
		switch {
		case soc < sim.LowSoC:
			actions[id] = sim.Action{Kind: sim.Charge, Arg: c.bestStation(env, region)}
		case soc < sim.AllowChargeSoC && band == pricing.OffPeak && c.src.Bool(preChargeProb) && c.stationHasFree(env, region):
			// Staggered pre-charging: use the cheap band while points are
			// actually free, spreading the fleet's charging demand in time.
			actions[id] = sim.Action{Kind: sim.Charge, Arg: c.bestStation(env, region)}
		default:
			byRegion[region] = append(byRegion[region], id)
			gap[region]--
		}
	}

	// Second pass, region by region: surplus taxis move toward the largest
	// nearby deficits. Matching serves the longest-vacant taxi first, so a
	// region's staying slots are its plum assignments; under FairShare the
	// lowest earners keep them and the highest earners carry the
	// speculative relocation burden.
	regions := make([]int, 0, len(byRegion))
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Ints(regions)
	for _, r := range regions {
		members := byRegion[r]
		if c.FairShare {
			sort.Slice(members, func(a, b int) bool {
				return env.PESoFar(members[a]) < env.PESoFar(members[b])
			})
		}
		// Keep as many taxis as the region's expected demand supports.
		keep := int(gap[r] + float64(len(members)) + 0.99) // ceil(demand)
		if keep < 0 {
			keep = 0
		}
		for i, id := range members {
			if i < keep {
				actions[id] = sim.Action{Kind: sim.Stay}
				continue
			}
			actions[id] = c.moveToward(env, r, gap)
		}
	}
	return actions
}

// moveToward picks the adjacent region with the largest unmet demand,
// updating the pressure field so later assignments see the claim; it
// returns Stay when no neighbor has meaningfully more need.
func (c *Coordinator) moveToward(env sim.Environment, region int, gap []float64) sim.Action {
	nbs := env.City().Partition.Region(region).Neighbors
	bestI, bestGap := -1, gap[region]+1
	for i, nb := range nbs {
		if i >= sim.MaxNeighbors {
			break
		}
		if gap[nb] > bestGap+0.3 {
			bestI, bestGap = i, gap[nb]
		}
	}
	if bestI < 0 {
		return sim.Action{Kind: sim.Stay}
	}
	gap[nbs[bestI]]--
	gap[region]++
	return sim.Action{Kind: sim.Move, Arg: bestI}
}

// bestStation returns the rank of the nearest-five station minimizing an
// expected-wait score: queue relative to point count plus travel distance.
func (c *Coordinator) bestStation(env sim.Environment, region int) int {
	ns := env.NearStations(region)
	best, bestScore := 0, 1e18
	for k := 0; k < len(ns) && k < sim.KStations; k++ {
		st := env.StationState(ns[k].Label)
		pts := float64(st.Station().Points)
		score := (float64(st.QueueLen())-float64(st.Free()))/pts + ns[k].DistKm*0.15
		if score < bestScore {
			best, bestScore = k, score
		}
	}
	return best
}

// stationHasFree reports whether any of the region's nearest stations has a
// free point right now.
func (c *Coordinator) stationHasFree(env sim.Environment, region int) bool {
	for _, nb := range env.NearStations(region) {
		if env.StationState(nb.Label).Free() > 0 {
			return true
		}
	}
	return false
}
