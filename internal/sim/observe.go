package sim

// Observation is the per-agent state of Section III-C: a local view (time
// and location context) plus a global view (supply, charging availability,
// and forecast demand), compressed to the agent's neighborhood so the
// feature width stays fixed while the policy network is shared by all
// agents. Mask marks which of the NumActions discrete actions are valid.
type Observation struct {
	Features []float64
	Mask     [NumActions]bool
}

// Feature layout (see Observe). The width is fixed so one shared network
// serves every agent, per the paper's centralized design.
const (
	featTime      = 2                // sin/cos of day fraction
	featSelf      = 3                // SoC, PE gap to fleet mean, vacancy age
	featOwnRegion = 3                // supply, forecast, expected fare
	featNeighbors = 3 * MaxNeighbors // same triple per neighbor, zero-padded
	featStations  = 4 * KStations    // free points, queue, distance, price
	featGlobal    = 3                // fleet vacancy rate, queue rate, tariff band level

	// FeatureSize is the total observation width.
	FeatureSize = featTime + featSelf + featOwnRegion + featNeighbors + featStations + featGlobal
)

// clampF clamps v to [lo, hi].
func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
