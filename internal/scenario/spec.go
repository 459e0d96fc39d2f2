// Package scenario is the fault/perturbation engine of the evaluation
// harness: a declarative, seed-independent description of everything that
// goes wrong in a run — charging-station outages and capacity derating,
// regional demand surges and droughts, GPS dropout windows, fare-price
// shocks, battery-degradation cohorts, weather slowdowns, time-of-use
// tariff shifts, mixed-consumption battery cohorts, shift-change waves,
// and airport surges.
//
// A Spec is loaded from JSON (Parse/Load) or built programmatically
// (Builder), normalized to a canonical event order, and compiled into an
// Engine implementing sim.Hooks. Because specs are data, the same
// perturbation is replayed bit-for-bit under every policy, which is what
// makes scenario-conditioned baseline comparisons (and the golden-trace
// harness) meaningful.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Event kinds. The set is closed: Parse rejects unknown kinds so a typo in
// a spec fails loudly instead of silently not perturbing anything.
const (
	// KindStationOutage closes a station to new arrivals over [FromMin,
	// ToMin). Queued taxis are evicted and re-plan; plugged-in taxis keep
	// charging.
	KindStationOutage = "station-outage"
	// KindStationDerate knocks out Points charging points over [FromMin,
	// ToMin). In-progress sessions are never interrupted; the excess drains
	// as they finish. Overlapping derates sum (clamped to the inventory).
	KindStationDerate = "station-derate"
	// KindDemandScale multiplies a region's (or, with Region omitted, the
	// whole city's) request rate by Factor over [FromMin, ToMin): >1 surge,
	// <1 drought, 0 silence. Overlapping scales multiply.
	KindDemandScale = "demand-scale"
	// KindFareShock multiplies the fare of requests originating in a region
	// (or citywide) by Factor over [FromMin, ToMin). Overlapping shocks
	// multiply.
	KindFareShock = "fare-shock"
	// KindGPSDropout freezes the observations of taxis in a region (or
	// citywide) at the last value seen before the window: the policy
	// decides on stale state until the window closes.
	KindGPSDropout = "gps-dropout"
	// KindBatteryDegradation scales the battery capacity of a cohort of
	// taxis (ID % CohortMod == CohortRem; CohortMod 0 = whole fleet) by
	// Factor for the entire run. Time window fields are ignored: packs do
	// not heal mid-run. Overlapping degradations multiply.
	KindBatteryDegradation = "battery-degradation"
	// KindWeather slows traffic in a region (or citywide) over [FromMin,
	// ToMin): travel speed is multiplied by Factor ∈ (0, 1] while demand is
	// multiplied by 2−Factor (bad weather both slows driving and raises
	// ride-hailing). Overlapping weather windows multiply on both axes.
	KindWeather = "weather"
	// KindTariffShift multiplies the time-of-use charging tariff citywide
	// by Factor over [FromMin, ToMin): a price spike (>1) or an off-peak
	// rebate (<1). It changes billing only — charging power and the
	// tariff-band observation feature are untouched, so policies cannot see
	// the shift except through their wallets. Overlapping shifts multiply.
	KindTariffShift = "tariff-shift"
	// KindBatteryCohort scales the energy consumption per km of a cohort of
	// taxis (ID % CohortMod == CohortRem; CohortMod 0 = whole fleet) by
	// Factor for the entire run: a mixed fleet of efficient (<1) and thirsty
	// (>1) vehicle models. Time windows are not supported. Overlapping
	// cohorts multiply.
	KindBatteryCohort = "battery-cohort"
	// KindShiftChange takes a cohort of taxis (ID % CohortMod == CohortRem;
	// CohortMod 0 = whole fleet) off duty over [FromMin, ToMin): off-duty
	// taxis are excluded from matching and hold position instead of
	// executing displacement actions. Forced charging below the low-SoC
	// floor still applies — a shift change never strands a taxi.
	// Overlapping windows OR.
	KindShiftChange = "shift-change"
	// KindAirportSurge models a flight-bank arrival wave: demand AND fares
	// in one required region are both multiplied by Factor over [FromMin,
	// ToMin). Overlapping surges multiply.
	KindAirportSurge = "airport-surge"
)

// kindRank fixes the canonical sort order of kinds.
var kindRank = map[string]int{
	KindStationOutage:      0,
	KindStationDerate:      1,
	KindDemandScale:        2,
	KindFareShock:          3,
	KindGPSDropout:         4,
	KindBatteryDegradation: 5,
	KindWeather:            6,
	KindTariffShift:        7,
	KindBatteryCohort:      8,
	KindShiftChange:        9,
	KindAirportSurge:       10,
}

// Event is one perturbation. Station and Region are pointers so the wire
// format distinguishes "station 0" from "not a station event"; use the
// StationID/RegionID accessors, which map omitted to -1 (citywide for
// Region).
type Event struct {
	Kind    string `json:"kind"`
	FromMin int    `json:"from_min,omitempty"`
	ToMin   int    `json:"to_min,omitempty"`
	Station *int   `json:"station,omitempty"`
	Region  *int   `json:"region,omitempty"`
	// Points is the number of charging points a derate removes.
	Points int `json:"points,omitempty"`
	// Factor is the multiplier of demand-scale, fare-shock, and
	// battery-degradation events.
	Factor float64 `json:"factor,omitempty"`
	// CohortMod/CohortRem select the battery-degradation cohort:
	// ID % CohortMod == CohortRem. CohortMod 0 selects the whole fleet.
	CohortMod int `json:"cohort_mod,omitempty"`
	CohortRem int `json:"cohort_rem,omitempty"`
}

// StationID returns the event's station, or -1 when it has none.
func (ev *Event) StationID() int {
	if ev.Station == nil {
		return -1
	}
	return *ev.Station
}

// RegionID returns the event's region, or -1 for citywide/none.
func (ev *Event) RegionID() int {
	if ev.Region == nil {
		return -1
	}
	return *ev.Region
}

// Spec is a named, ordered collection of perturbation events.
type Spec struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Events      []Event `json:"events"`
}

// Validate checks every event against its kind's schema. It does not know
// the city, so index range checks happen in Attach.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	for i := range s.Events {
		if err := validateEvent(&s.Events[i]); err != nil {
			return fmt.Errorf("scenario %q: event %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func validateEvent(ev *Event) error {
	if _, ok := kindRank[ev.Kind]; !ok {
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	isStation := ev.Kind == KindStationOutage || ev.Kind == KindStationDerate
	isBattery := ev.Kind == KindBatteryDegradation || ev.Kind == KindBatteryCohort
	if !isBattery {
		if ev.FromMin < 0 {
			return fmt.Errorf("%s: negative from_min %d", ev.Kind, ev.FromMin)
		}
		if ev.ToMin < ev.FromMin {
			return fmt.Errorf("%s: window [%d, %d) runs backwards", ev.Kind, ev.FromMin, ev.ToMin)
		}
	} else if ev.FromMin != 0 || ev.ToMin != 0 {
		return fmt.Errorf("%s: time windows are not supported (packs do not heal mid-run)", ev.Kind)
	}
	if isStation {
		if ev.Station == nil {
			return fmt.Errorf("%s: missing station", ev.Kind)
		}
		if *ev.Station < 0 {
			return fmt.Errorf("%s: negative station %d", ev.Kind, *ev.Station)
		}
	} else if ev.Station != nil {
		return fmt.Errorf("%s: station field is not allowed", ev.Kind)
	}
	switch {
	case isStation || isBattery || ev.Kind == KindTariffShift || ev.Kind == KindShiftChange:
		if ev.Region != nil {
			return fmt.Errorf("%s: region field is not allowed", ev.Kind)
		}
	case ev.Kind == KindAirportSurge:
		// An airport is a place: a citywide "airport" surge is a spec bug.
		if ev.Region == nil {
			return fmt.Errorf("airport-surge: missing region")
		}
		if *ev.Region < 0 {
			return fmt.Errorf("airport-surge: negative region %d", *ev.Region)
		}
	default:
		if ev.Region != nil && *ev.Region < 0 {
			return fmt.Errorf("%s: negative region %d", ev.Kind, *ev.Region)
		}
	}
	if ev.Kind == KindStationDerate {
		if ev.Points < 1 {
			return fmt.Errorf("station-derate: points must be >= 1, got %d", ev.Points)
		}
	} else if ev.Points != 0 {
		return fmt.Errorf("%s: points field is not allowed", ev.Kind)
	}
	switch ev.Kind {
	case KindDemandScale, KindFareShock:
		// NaN passes a bare `< 0` check and then poisons every product and
		// the canonical sort, so rule out non-finite factors explicitly
		// (JSON cannot encode them, but Builder can).
		if math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0) {
			return fmt.Errorf("%s: factor must be finite, got %v", ev.Kind, ev.Factor)
		}
		if ev.Factor < 0 {
			return fmt.Errorf("%s: factor must be >= 0, got %v", ev.Kind, ev.Factor)
		}
	case KindBatteryDegradation, KindBatteryCohort, KindTariffShift, KindAirportSurge:
		if math.IsInf(ev.Factor, 0) {
			return fmt.Errorf("%s: factor must be finite, got %v", ev.Kind, ev.Factor)
		}
		if !(ev.Factor > 0) { // also rejects NaN
			return fmt.Errorf("%s: factor must be > 0, got %v", ev.Kind, ev.Factor)
		}
	case KindWeather:
		if !(ev.Factor > 0) || ev.Factor > 1 { // also rejects NaN/Inf
			return fmt.Errorf("weather: factor must be in (0, 1], got %v", ev.Factor)
		}
	default:
		if ev.Factor != 0 {
			return fmt.Errorf("%s: factor field is not allowed", ev.Kind)
		}
	}
	if isBattery || ev.Kind == KindShiftChange {
		if ev.CohortMod < 0 {
			return fmt.Errorf("%s: negative cohort_mod %d", ev.Kind, ev.CohortMod)
		}
		if ev.CohortMod == 0 && ev.CohortRem != 0 {
			return fmt.Errorf("%s: cohort_rem %d without cohort_mod", ev.Kind, ev.CohortRem)
		}
		if ev.CohortMod > 0 && (ev.CohortRem < 0 || ev.CohortRem >= ev.CohortMod) {
			return fmt.Errorf("%s: cohort_rem %d out of [0, %d)", ev.Kind, ev.CohortRem, ev.CohortMod)
		}
	} else if ev.CohortMod != 0 || ev.CohortRem != 0 {
		return fmt.Errorf("%s: cohort fields are not allowed", ev.Kind)
	}
	return nil
}

// Normalize sorts events into the canonical order so semantically equal
// specs encode to identical bytes regardless of authoring order. Merge
// semantics are order-independent (OR / sum / product), so sorting never
// changes behavior.
func (s *Spec) Normalize() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		return eventLess(&s.Events[i], &s.Events[j])
	})
}

func eventLess(a, b *Event) bool {
	if ra, rb := kindRank[a.Kind], kindRank[b.Kind]; ra != rb {
		return ra < rb
	}
	if a.FromMin != b.FromMin {
		return a.FromMin < b.FromMin
	}
	if a.ToMin != b.ToMin {
		return a.ToMin < b.ToMin
	}
	if sa, sb := a.StationID(), b.StationID(); sa != sb {
		return sa < sb
	}
	if ra, rb := a.RegionID(), b.RegionID(); ra != rb {
		return ra < rb
	}
	if a.Points != b.Points {
		return a.Points < b.Points
	}
	if a.Factor != b.Factor {
		return a.Factor < b.Factor
	}
	if a.CohortMod != b.CohortMod {
		return a.CohortMod < b.CohortMod
	}
	return a.CohortRem < b.CohortRem
}

// Parse decodes, validates, and normalizes a JSON spec. Unknown fields are
// rejected: a misspelled field means the author's intent would silently not
// apply.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing garbage after the object is an error, not ignored input.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.Normalize()
	return &s, nil
}

// Load reads a spec file from disk.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Encode renders the spec as canonical indented JSON (normalized event
// order, trailing newline). Parse(Encode(s)) reproduces s exactly.
func Encode(s *Spec) ([]byte, error) {
	c := *s
	c.Events = append([]Event{}, s.Events...)
	c.Normalize()
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(data, '\n'), nil
}
