package scenario

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/synth"
)

// Engine compiles a Spec into the sim.Hooks interface. It is stateless
// beyond the compiled schedule — every method is a pure function of its
// arguments — so one engine can condition any number of runs, policies,
// and resets, and identical runs see identical answers regardless of call
// order or count.
//
// Merge semantics for overlapping events of the same kind:
//
//	station-outage       closures OR       (closed if any window covers m)
//	station-derate       points SUM        (clamped to inventory by the env)
//	demand-scale         factors MULTIPLY  (citywide × regional compose)
//	fare-shock           factors MULTIPLY
//	gps-dropout          windows OR
//	battery-degradation  factors MULTIPLY  (all cohorts containing the taxi)
//	weather              factors MULTIPLY  (speed × f, demand × 2−f)
//	tariff-shift         factors MULTIPLY
//	battery-cohort       factors MULTIPLY  (all cohorts containing the taxi)
//	shift-change         windows OR
//	airport-surge        factors MULTIPLY  (demand and fares both × f)
//
// Because each kind merges with a commutative, associative operation, the
// compiled answers are independent of authoring and composition order.
type Engine struct {
	spec *Spec

	outages map[int][]window
	derates map[int][]derate
	demand  []regionFactor
	fares   []regionFactor
	stale   []regionWindow
	battery []cohortFactor

	speed       []regionFactor
	tariffs     []windowFactor
	consumption []cohortFactor
	offduty     []cohortWindow
}

type window struct{ from, to int }

func (w window) covers(m int) bool { return m >= w.from && m < w.to }

type derate struct {
	window
	points int
}

type regionFactor struct {
	window
	region int // -1 = citywide
	factor float64
}

type regionWindow struct {
	window
	region int // -1 = citywide
}

type cohortFactor struct {
	mod, rem int
	factor   float64
}

type windowFactor struct {
	window
	factor float64
}

type cohortWindow struct {
	window
	mod, rem int
}

var _ sim.Hooks = (*Engine)(nil)

// NewEngine compiles a validated spec. It does not validate indices against
// a city; use Attach for that.
func NewEngine(spec *Spec) *Engine {
	e := &Engine{
		spec:    spec,
		outages: make(map[int][]window),
		derates: make(map[int][]derate),
	}
	for i := range spec.Events {
		ev := &spec.Events[i]
		w := window{from: ev.FromMin, to: ev.ToMin}
		switch ev.Kind {
		case KindStationOutage:
			e.outages[ev.StationID()] = append(e.outages[ev.StationID()], w)
		case KindStationDerate:
			e.derates[ev.StationID()] = append(e.derates[ev.StationID()], derate{w, ev.Points})
		case KindDemandScale:
			e.demand = append(e.demand, regionFactor{w, ev.RegionID(), ev.Factor})
		case KindFareShock:
			e.fares = append(e.fares, regionFactor{w, ev.RegionID(), ev.Factor})
		case KindGPSDropout:
			e.stale = append(e.stale, regionWindow{w, ev.RegionID()})
		case KindBatteryDegradation:
			e.battery = append(e.battery, cohortFactor{ev.CohortMod, ev.CohortRem, ev.Factor})
		case KindWeather:
			// Bad weather couples both axes: driving slows by Factor while
			// demand rises by the mirrored 2−Factor.
			e.speed = append(e.speed, regionFactor{w, ev.RegionID(), ev.Factor})
			e.demand = append(e.demand, regionFactor{w, ev.RegionID(), 2 - ev.Factor})
		case KindTariffShift:
			e.tariffs = append(e.tariffs, windowFactor{w, ev.Factor})
		case KindBatteryCohort:
			e.consumption = append(e.consumption, cohortFactor{ev.CohortMod, ev.CohortRem, ev.Factor})
		case KindShiftChange:
			e.offduty = append(e.offduty, cohortWindow{w, ev.CohortMod, ev.CohortRem})
		case KindAirportSurge:
			// A flight bank compiles entirely into the existing demand and
			// fare schedules: no new sim wiring is needed for it.
			e.demand = append(e.demand, regionFactor{w, ev.RegionID(), ev.Factor})
			e.fares = append(e.fares, regionFactor{w, ev.RegionID(), ev.Factor})
		}
	}
	return e
}

// Spec returns the spec the engine was compiled from.
func (e *Engine) Spec() *Spec { return e.spec }

// StationClosed implements sim.Hooks.
func (e *Engine) StationClosed(station, minute int) bool {
	for _, w := range e.outages[station] {
		if w.covers(minute) {
			return true
		}
	}
	return false
}

// StationDerate implements sim.Hooks.
func (e *Engine) StationDerate(station, minute int) int {
	total := 0
	for _, d := range e.derates[station] {
		if d.covers(minute) {
			total += d.points
		}
	}
	return total
}

// DemandScale implements sim.Hooks.
func (e *Engine) DemandScale(region, minute int) float64 {
	return productAt(e.demand, region, minute)
}

// FareScale implements sim.Hooks.
func (e *Engine) FareScale(region, minute int) float64 {
	return productAt(e.fares, region, minute)
}

func productAt(fs []regionFactor, region, minute int) float64 {
	f := 1.0
	for _, rf := range fs {
		if rf.covers(minute) && (rf.region < 0 || rf.region == region) {
			f *= rf.factor
		}
	}
	return f
}

// ObsStale implements sim.Hooks.
func (e *Engine) ObsStale(region, minute int) bool {
	for _, rw := range e.stale {
		if rw.covers(minute) && (rw.region < 0 || rw.region == region) {
			return true
		}
	}
	return false
}

// BatteryFactor implements sim.Hooks.
func (e *Engine) BatteryFactor(taxi int) float64 {
	f := 1.0
	for _, c := range e.battery {
		if c.mod <= 0 || taxi%c.mod == c.rem {
			f *= c.factor
		}
	}
	return f
}

// SpeedScale implements sim.Hooks: the travel-speed multiplier for
// a region at a minute (weather events; 1 means clear skies).
func (e *Engine) SpeedScale(region, minute int) float64 {
	return productAt(e.speed, region, minute)
}

// TariffScale implements sim.Hooks: the citywide charging-price
// multiplier at a minute (tariff-shift events).
func (e *Engine) TariffScale(minute int) float64 {
	f := 1.0
	for _, wf := range e.tariffs {
		if wf.covers(minute) {
			f *= wf.factor
		}
	}
	return f
}

// OffDuty implements sim.Hooks: whether a taxi is on a shift
// change at a minute.
func (e *Engine) OffDuty(taxi, minute int) bool {
	for _, cw := range e.offduty {
		if cw.covers(minute) && (cw.mod <= 0 || taxi%cw.mod == cw.rem) {
			return true
		}
	}
	return false
}

// ConsumptionFactor implements sim.Hooks: the per-taxi multiplier
// on energy consumption per km (battery-cohort events).
func (e *Engine) ConsumptionFactor(taxi int) float64 {
	f := 1.0
	for _, c := range e.consumption {
		if c.mod <= 0 || taxi%c.mod == c.rem {
			f *= c.factor
		}
	}
	return f
}

// ValidateFor checks the spec's station and region indices against a
// concrete city (Spec.Validate alone cannot: it does not know the
// inventory).
func ValidateFor(spec *Spec, city *synth.City) error {
	nStations, nRegions := city.Stations.Len(), city.Partition.Len()
	for i := range spec.Events {
		ev := &spec.Events[i]
		if s := ev.StationID(); s >= nStations {
			return fmt.Errorf("scenario %q: event %d: station %d out of range (city has %d)",
				spec.Name, i, s, nStations)
		}
		if r := ev.RegionID(); r >= nRegions {
			return fmt.Errorf("scenario %q: event %d: region %d out of range (city has %d)",
				spec.Name, i, r, nRegions)
		}
	}
	return nil
}

// AttachTarget is the environment surface Attach needs: any environment
// that exposes its city and accepts hooks (every sim.Environment does).
type AttachTarget interface {
	City() *synth.City
	SetHooks(sim.Hooks)
}

// Attach validates the spec against the environment's city, compiles it,
// and installs the engine as the env's hooks. Install before Reset
// (policy.Evaluate resets internally, so attaching before Evaluate is
// always safe).
func Attach(env AttachTarget, spec *Spec) (*Engine, error) {
	if err := ValidateFor(spec, env.City()); err != nil {
		return nil, err
	}
	eng := NewEngine(spec)
	env.SetHooks(eng)
	return eng, nil
}
