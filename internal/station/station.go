// Package station models the charging infrastructure of Section II: 123
// stations, each with a fixed inventory of fast-charging points and a FIFO
// waiting queue. Queue dynamics are the mechanism behind the paper's idle
// time T_idle (time between arriving at a station and plugging in), so they
// are modeled explicitly rather than folded into a delay constant.
package station

import (
	"fmt"
	"slices"

	"repro/internal/geo"
	"repro/internal/rng"

	"repro/internal/energy"
)

// Station is the static description of one charging station (the charging
// station dataset of Table I).
type Station struct {
	ID     int
	Name   string
	Loc    geo.Point
	Region int // region containing the station
	Points int // number of fast charging points
	// Charger describes the hardware at this station's points.
	Charger energy.Charger
}

// State is the runtime occupancy state of one station: which taxis hold a
// point and which are waiting, in arrival order.
type State struct {
	station  Station
	charging map[int]bool // taxi IDs currently plugged in
	waiting  []int        // FIFO of taxi IDs
	// derate is the number of points currently unavailable (capacity
	// perturbation, e.g. broken chargers or grid limits). In-progress
	// sessions are never interrupted; the excess drains as they finish.
	derate int
}

// NewState returns an empty runtime state for st.
func NewState(st Station) *State {
	return &State{station: st, charging: make(map[int]bool)}
}

// Station returns the static description.
func (s *State) Station() Station { return s.station }

// Arrive registers taxi at the station. If a point is free the taxi plugs in
// immediately and Arrive returns true; otherwise it joins the FIFO queue and
// Arrive returns false. Arriving twice without leaving is a programming
// error and panics.
func (s *State) Arrive(taxi int) (plugged bool) {
	if s.charging[taxi] || s.inQueue(taxi) {
		panic(fmt.Sprintf("station: taxi %d arrived twice at station %d", taxi, s.station.ID))
	}
	if len(s.charging) < s.EffectivePoints() {
		s.charging[taxi] = true
		return true
	}
	s.waiting = append(s.waiting, taxi)
	return false
}

// EffectivePoints returns the points currently usable: the inventory minus
// the derate, floored at zero.
func (s *State) EffectivePoints() int {
	p := s.station.Points - s.derate
	if p < 0 {
		return 0
	}
	return p
}

// Derate returns the number of points currently unavailable.
func (s *State) Derate() int { return s.derate }

// SetDerate marks n points unavailable to new sessions (clamped to the
// inventory). Taxis already plugged in keep charging even when occupancy
// exceeds the derated capacity — the excess drains as sessions finish.
// Lowering the derate promotes waiting taxis into whatever capacity it
// frees; the promoted IDs are returned in FIFO order (empty when none).
func (s *State) SetDerate(n int) (promoted []int) {
	if n < 0 {
		n = 0
	}
	if n > s.station.Points {
		n = s.station.Points
	}
	s.derate = n
	for len(s.waiting) > 0 && len(s.charging) < s.EffectivePoints() {
		next := s.popWaiting()
		s.charging[next] = true
		promoted = append(promoted, next)
	}
	return promoted
}

// DrainQueue empties the waiting queue and returns the evicted taxi IDs in
// FIFO order. The simulator uses it when a station closes: waiting taxis
// must re-plan rather than queue at a dead station.
func (s *State) DrainQueue() []int {
	out := s.waiting
	s.waiting = nil
	return out
}

func (s *State) inQueue(taxi int) bool {
	for _, t := range s.waiting {
		if t == taxi {
			return true
		}
	}
	return false
}

// Finish releases the point held by taxi and promotes the head of the queue
// if any. It returns the promoted taxi ID, or -1 if the queue was empty. It
// panics if taxi was not charging.
func (s *State) Finish(taxi int) (promoted int) {
	if !s.charging[taxi] {
		panic(fmt.Sprintf("station: taxi %d finished but was not charging at station %d", taxi, s.station.ID))
	}
	delete(s.charging, taxi)
	if len(s.waiting) == 0 || len(s.charging) >= s.EffectivePoints() {
		// Nothing to promote, or the freed point is one the derate already
		// claimed (occupancy still at or above the derated capacity).
		return -1
	}
	next := s.popWaiting()
	s.charging[next] = true
	return next
}

// popWaiting removes and returns the head of the queue, shifting the rest
// down so appends reuse the backing array's front instead of sliding past it
// and regrowing.
func (s *State) popWaiting() int {
	next := s.waiting[0]
	s.waiting = slices.Delete(s.waiting, 0, 1)
	return next
}

// Occupied returns the number of points in use.
func (s *State) Occupied() int { return len(s.charging) }

// Free returns the number of unoccupied charging points available to new
// sessions (a component of the paper's global-view state), respecting any
// derate and floored at zero while excess sessions drain.
func (s *State) Free() int {
	f := s.EffectivePoints() - len(s.charging)
	if f < 0 {
		return 0
	}
	return f
}

// QueueLen returns the number of taxis waiting.
func (s *State) QueueLen() int { return len(s.waiting) }

// IsCharging reports whether taxi currently holds a point.
func (s *State) IsCharging(taxi int) bool { return s.charging[taxi] }

// Reset clears all runtime occupancy and any derate, keeping the charging
// map's buckets and the queue's backing array for the next episode.
func (s *State) Reset() {
	clear(s.charging)
	s.waiting = s.waiting[:0]
	s.derate = 0
}

// CheckInvariants verifies internal consistency; tests and the simulator's
// debug mode call it.
func (s *State) CheckInvariants() error {
	if len(s.charging) > s.station.Points {
		return fmt.Errorf("station %d: %d charging > %d points", s.station.ID, len(s.charging), s.station.Points)
	}
	if s.derate < 0 || s.derate > s.station.Points {
		return fmt.Errorf("station %d: derate %d outside [0, %d]", s.station.ID, s.derate, s.station.Points)
	}
	if len(s.waiting) > 0 && len(s.charging) < s.EffectivePoints() {
		return fmt.Errorf("station %d: queue non-empty with %d free points", s.station.ID, s.Free())
	}
	seen := make(map[int]bool)
	for _, t := range s.waiting {
		if seen[t] {
			return fmt.Errorf("station %d: taxi %d queued twice", s.station.ID, t)
		}
		seen[t] = true
		if s.charging[t] {
			return fmt.Errorf("station %d: taxi %d both charging and queued", s.station.ID, t)
		}
	}
	return nil
}

// Network is the set of all stations plus a spatial index for k-nearest
// queries ("the nearest five charging stations" of the action space).
type Network struct {
	stations []Station
	index    *geo.GridIndex
}

// NewNetwork builds a network from stations with dense IDs 0..n-1.
func NewNetwork(stations []Station) (*Network, error) {
	if len(stations) == 0 {
		return nil, fmt.Errorf("station: empty network")
	}
	pts := make([]geo.Point, len(stations))
	for i, st := range stations {
		if st.ID != i {
			return nil, fmt.Errorf("station: station at index %d has ID %d; IDs must be dense", i, st.ID)
		}
		if st.Points <= 0 {
			return nil, fmt.Errorf("station %d: must have at least one point", st.ID)
		}
		if err := st.Charger.Validate(); err != nil {
			return nil, fmt.Errorf("station %d: %w", st.ID, err)
		}
		pts[i] = st.Loc
	}
	cells := 1
	for cells*cells < len(stations) {
		cells++
	}
	return &Network{
		stations: append([]Station(nil), stations...),
		index:    geo.NewGridIndex(pts, nil, cells),
	}, nil
}

// Len returns the number of stations.
func (n *Network) Len() int { return len(n.stations) }

// Station returns the station with the given ID.
func (n *Network) Station(id int) Station { return n.stations[id] }

// Stations returns all stations. The slice must not be modified.
func (n *Network) Stations() []Station { return n.stations }

// Nearest returns the k stations closest to p ordered by distance.
func (n *Network) Nearest(p geo.Point, k int) []geo.Neighbor {
	return n.index.KNearest(p, k)
}

// TotalPoints returns the total charging point inventory.
func (n *Network) TotalPoints() int {
	var total int
	for _, s := range n.stations {
		total += s.Points
	}
	return total
}

// GenerateOpts controls synthetic station placement.
type GenerateOpts struct {
	Count     int       // number of stations (paper: 123)
	MinPoints int       // minimum points per station (default 20)
	MaxPoints int       // maximum points per station (default 60)
	Regions   []RegSeed // candidate regions with placement weights
}

// RegSeed is a candidate region for station placement.
type RegSeed struct {
	Region   int
	Centroid geo.Point
	Weight   float64 // placement probability weight (e.g. demand share)
}

// Generate places Count stations by weighted sampling over candidate regions
// without replacement, with point counts uniform in [MinPoints, MaxPoints]
// and charger power uniform in 40-60 kW. The paper's network has 123
// stations with >5,000 points total; the defaults reproduce that scale.
func Generate(seed int64, opts GenerateOpts) (*Network, error) {
	if opts.Count <= 0 {
		return nil, fmt.Errorf("station: Count must be positive")
	}
	if len(opts.Regions) < opts.Count {
		return nil, fmt.Errorf("station: %d candidate regions for %d stations", len(opts.Regions), opts.Count)
	}
	if opts.MinPoints <= 0 {
		opts.MinPoints = 20
	}
	if opts.MaxPoints < opts.MinPoints {
		opts.MaxPoints = opts.MinPoints + 40
	}
	src := rng.SplitStable(seed, "stations")

	weights := make([]float64, len(opts.Regions))
	for i, r := range opts.Regions {
		weights[i] = r.Weight
		if weights[i] <= 0 {
			weights[i] = 1e-9
		}
	}
	chosen := make([]int, 0, opts.Count)
	for len(chosen) < opts.Count {
		i := src.WeightedChoice(weights)
		if weights[i] == 0 {
			continue
		}
		weights[i] = 0
		chosen = append(chosen, i)
	}

	stations := make([]Station, opts.Count)
	for id, ri := range chosen {
		r := opts.Regions[ri]
		loc := geo.Point{
			Lng: r.Centroid.Lng + src.Uniform(-0.004, 0.004),
			Lat: r.Centroid.Lat + src.Uniform(-0.004, 0.004),
		}
		stations[id] = Station{
			ID:     id,
			Name:   fmt.Sprintf("CS-%03d", id),
			Loc:    loc,
			Region: r.Region,
			Points: opts.MinPoints + src.Intn(opts.MaxPoints-opts.MinPoints+1),
			Charger: energy.Charger{
				PowerKW:      src.Uniform(40, 60),
				TaperKneeSoC: 0.80,
				TaperFloor:   0.20,
			},
		}
	}
	return NewNetwork(stations)
}
