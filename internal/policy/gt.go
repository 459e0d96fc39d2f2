package policy

import (
	"repro/internal/pricing"
	"repro/internal/rng"
	"repro/internal/sim"
)

// GroundTruth replays the uncoordinated driver behavior the paper extracts
// from the raw Shenzhen data: drivers mostly stay where they are, sometimes
// drift toward known hotspots, charge at the nearest station when the
// battery is low, and — because the TOU tariff is public — opportunistically
// plug in during cheap bands. The last habit is what produces the intensive
// charging peaks of Fig. 4, and the nearest-station habit produces the
// queueing that FairMove later removes.
type GroundTruth struct {
	src *rng.Source
	// savvy[id] ∈ [0,1] is driver id's skill: how accurately they know
	// where demand is and which stations are free. The spread is what
	// produces the paper's Fig. 8 earnings inequality (top-20% drivers earn
	// ~42% more than bottom-20%) that FairMove then evens out.
	savvy []float64
}

// The calibrated habit strengths of the replayed drivers.
const (
	// wanderProb is the chance a driver drifts toward a promising adjacent
	// region instead of staying.
	wanderProb = 0.35
	// cheapChargeProb is the chance a driver below the simulator's charge
	// ceiling (sim.AllowChargeSoC) starts charging when the tariff is
	// off-peak.
	cheapChargeProb = 0.5
)

// NewGroundTruth returns the driver-behavior replay.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{src: rng.New(0)}
}

// Name implements Policy.
func (g *GroundTruth) Name() string { return "GT" }

// BeginEpisode implements Policy.
func (g *GroundTruth) BeginEpisode(seed int64) {
	g.src = rng.SplitStable(seed, "gt")
	g.savvy = nil // regenerated lazily at the fleet size observed
}

// driverSavvy returns (building on first use) the per-driver skill levels.
func (g *GroundTruth) driverSavvy(fleet int) []float64 {
	if len(g.savvy) != fleet {
		skillSrc := rng.SplitStable(int64(fleet), "gt-savvy")
		g.savvy = make([]float64, fleet)
		for i := range g.savvy {
			g.savvy[i] = skillSrc.Float64()
		}
	}
	return g.savvy
}

// Act implements Policy.
func (g *GroundTruth) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	actions := make(map[int]sim.Action, len(vacant))
	tariff := env.City().Tariff
	band := tariff.BandAt(env.Now())
	savvy := g.driverSavvy(len(env.City().Fleet))
	for _, id := range vacant {
		soc := env.TaxiSoC(id)
		switch {
		case soc < sim.LowSoC:
			// Forced: a nearby station. Savvy drivers disperse by their
			// rough knowledge of occupancy; the rest just go to the nearest
			// (and inherit its queue).
			actions[id] = sim.Action{Kind: sim.Charge, Arg: g.pickStation(env, id, savvy[id])}
		case soc < sim.AllowChargeSoC && band == pricing.OffPeak && g.src.Bool(cheapChargeProb):
			// Opportunistic cheap charging — everyone has the same idea,
			// hence the off-peak charging peaks of Fig. 4.
			actions[id] = sim.Action{Kind: sim.Charge, Arg: g.pickStation(env, id, savvy[id])}
		case g.lowLocalDemand(env, id, savvy[id]) && g.src.Bool(wanderProb):
			// Drivers drift when their region is dead. Savvy drivers head
			// toward the genuinely busiest neighbor; the rest guess.
			actions[id] = sim.Action{Kind: sim.Move, Arg: g.pickNeighbor(env, id, savvy[id])}
		default:
			actions[id] = sim.Action{Kind: sim.Stay}
		}
	}
	return actions
}

// pickStation chooses a station rank. Savvy drivers weight the nearest
// stations by free capacity; unsavvy ones take the nearest regardless.
func (g *GroundTruth) pickStation(env sim.Environment, id int, savvy float64) int {
	// Even savvy drivers only sometimes know the live occupancy; most of
	// the time everyone defaults to the nearest station, which is what
	// crowds popular stations during the cheap bands (Fig. 4) and gives
	// FairMove its idle-time headroom (Fig. 13).
	if !g.src.Bool(savvy * 0.6) {
		return 0
	}
	ns := env.NearStations(env.TaxiRegion(id))
	weights := make([]float64, 0, sim.KStations)
	for k := 0; k < len(ns) && k < sim.KStations; k++ {
		st := env.StationState(ns[k].Label)
		free := float64(st.Free()) - float64(st.QueueLen())
		if free < 0.5 {
			free = 0.5
		}
		// Nearer stations are preferred all else equal.
		weights = append(weights, free/(1+ns[k].DistKm))
	}
	if len(weights) == 0 {
		return 0
	}
	return g.src.WeightedChoice(weights)
}

// pickNeighbor chooses a move target. Savvy drivers know the busiest
// neighbor; the rest wander at random.
func (g *GroundTruth) pickNeighbor(env sim.Environment, id int, savvy float64) int {
	nbs := env.City().Partition.Region(env.TaxiRegion(id)).Neighbors
	n := len(nbs)
	if n > sim.MaxNeighbors {
		n = sim.MaxNeighbors
	}
	if n == 0 {
		return 0
	}
	if !g.src.Bool(savvy) {
		return g.src.Intn(n)
	}
	return g.busiestNeighbor(env, id, savvy)
}

// perceivedDemand is a driver's estimate of a region's demand this slot.
// Drivers know the city's long-run hotspots (the folk prior: each region's
// time-averaged request level) but not the time-resolved picture — that
// real-time + historical forecast is precisely the informational edge the
// paper's centralized system has (Section III). Savvy drivers blend in the
// actual time-of-day truth; everyone's estimate carries residual noise.
// The folk prior is why GT drivers hold famous hotspots at 3 a.m. while
// demand is elsewhere — the long pre-dawn cruises FairMove removes in
// Fig. 11.
func (g *GroundTruth) perceivedDemand(env sim.Environment, region int, savvy float64) float64 {
	m := env.City().Demand
	folk := m.Profile(region).BasePerHour * m.Scale / 60 * float64(env.SlotLen())
	truth := m.ExpectedSlotDemand(region, env.Now(), env.SlotLen())
	p := folk*(1-savvy) + truth*savvy
	return p * g.src.LogNormal(0, 0.4)
}

// lowLocalDemand reports whether the driver believes their region is dead.
func (g *GroundTruth) lowLocalDemand(env sim.Environment, id int, savvy float64) bool {
	return g.perceivedDemand(env, env.TaxiRegion(id), savvy) < 0.5
}

// busiestNeighbor returns the index of the adjacent region the driver
// believes is busiest.
func (g *GroundTruth) busiestNeighbor(env sim.Environment, id int, savvy float64) int {
	region := env.TaxiRegion(id)
	nbs := env.City().Partition.Region(region).Neighbors
	best, bestV := 0, -1.0
	for i, nb := range nbs {
		if i >= sim.MaxNeighbors {
			break
		}
		v := g.perceivedDemand(env, nb, savvy)
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
