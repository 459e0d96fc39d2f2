package sim

import "repro/internal/trace"

// Hooks is the environment's fault/perturbation interface. A scenario engine
// (internal/scenario) implements it to inject charging-station outages and
// capacity derating, demand surges and droughts, fare-price shocks, GPS
// dropout (stale observations), battery-degradation and mixed-consumption
// cohorts, weather slowdowns, time-of-use tariff shifts and shift-change
// waves — without the environment hard-coding any particular fault type.
// Every method has an exact identity answer (false, 0 or 1) under which the
// environment's behavior, trace bytes included, is untouched.
//
// All methods must be pure functions of their arguments (and the scenario
// they were built from): the environment may call them any number of times
// per minute, from several kernels concurrently, and identical runs must
// see identical answers. Install with SetHooks before Reset; battery factors
// are applied when the fleet is (re)built.
type Hooks interface {
	// StationClosed reports whether the station rejects new arrivals at the
	// given absolute minute. Taxis already plugged in keep charging; queued
	// taxis are evicted and re-plan.
	StationClosed(station, minute int) bool
	// StationDerate returns how many of the station's charging points are
	// unavailable at the given minute (0 = full capacity). Values above the
	// inventory are clamped.
	StationDerate(station, minute int) int
	// DemandScale returns the demand-rate multiplier for a region over the
	// slot starting at the given minute: 1 = unperturbed, >1 surge, <1
	// drought, <=0 silence.
	DemandScale(region, minute int) float64
	// FareScale returns the fare multiplier applied to requests originating
	// in the region at the given minute (1 = unperturbed).
	FareScale(region, minute int) float64
	// ObsStale reports whether taxis in the region have dropped off GPS at
	// the given minute: their observations freeze at the last value seen
	// before the dropout window.
	ObsStale(region, minute int) bool
	// BatteryFactor returns the battery-capacity multiplier for a taxi
	// (1 = healthy; 0.8 models a degraded cohort). Applied at Reset.
	BatteryFactor(taxi int) float64
	// SpeedScale returns the travel-speed multiplier for a region at a
	// minute (1 = unperturbed; 0.7 models heavy rain). Applied to cruising,
	// pickup approach, and station approach legs alike.
	SpeedScale(region, minute int) float64
	// TariffScale returns the citywide multiplier on the charging price at
	// a minute (1 = unperturbed). It scales billing only: charging power
	// and the tariff-band observation feature are deliberately untouched,
	// so policies feel the shift through profit, not through features.
	TariffScale(minute int) float64
	// OffDuty reports whether a taxi is on a shift change at a minute:
	// excluded from matching and holding position instead of executing
	// displacement actions. Forced charging below LowSoC still applies, so
	// a shift change never strands a taxi.
	OffDuty(taxi, minute int) bool
	// ConsumptionFactor returns the multiplier on a taxi's energy
	// consumption per km (1 = stock vehicle). Applied at Reset alongside
	// BatteryFactor.
	ConsumptionFactor(taxi int) float64
}

// Recorder receives the structured event log of a run: one call per
// behavioral event, in simulation order. Install with SetRecorder; the
// golden-trace harness digests the stream to pin behavior at byte
// granularity. A nil recorder (the default) costs nothing.
type Recorder func(trace.Event)

// clampInt clamps v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
