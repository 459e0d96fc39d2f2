package sim

import (
	"repro/internal/geo"
	"repro/internal/station"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Environment is the simulation surface policies and harnesses run against.
// The region-sharded simulator New builds (*Core) implements it; test fakes
// and wrappers (recorders, invariant checkers, tracers) embed it. Every
// method is single-goroutine — callers interleave reads and Step from one
// goroutine, whatever the shard count — with one exception: after
// PrepareObserve, ObserveRows may run on several goroutines at once over
// disjoint taxis, until the next Step or other method call.
type Environment interface {
	// City returns the underlying synthetic city.
	City() *synth.City
	// Now returns the current absolute simulation minute.
	Now() int
	// Slot returns the current absolute slot index.
	Slot() int
	// SlotLen returns the slot length in minutes.
	SlotLen() int
	// HorizonMin returns the simulation horizon in absolute minutes: Done
	// becomes true once Now reaches it. External drivers (the online dispatch
	// service) use it to know when a feed has covered the whole run.
	HorizonMin() int
	// Done reports whether the horizon has been reached.
	Done() bool
	// Reset restores the initial fleet and clears all accounting.
	Reset(seed int64)
	// Step applies one displacement action per vacant taxi (missing entries
	// default to Stay) and advances the world by one time slot.
	Step(actions map[int]Action)

	// VacantTaxis returns the IDs of taxis awaiting a displacement decision
	// this slot, ascending.
	VacantTaxis() []int
	// Observe builds the observation for a vacant taxi: its ObserveRows row
	// widened to float64. Features stays valid until the next Observe.
	Observe(id int) Observation
	// PrepareObserve builds the slot's shared observation state for the
	// given vacant taxis, so ObserveRows can then run concurrently.
	PrepareObserve(vacant []int)
	// ObserveRows writes the float32 observation rows (FeatureSize values
	// per taxi) and action masks of taxis PrepareObserve saw this slot. Calls
	// on disjoint ids may run concurrently.
	ObserveRows(ids []int, feats []float32, masks [][NumActions]bool)
	// ValidMask returns the action-validity mask for a taxi.
	ValidMask(id int) [NumActions]bool
	// TaxiRegion returns the current region of a taxi.
	TaxiRegion(id int) int
	// TaxiSoC returns the current state of charge of a taxi.
	TaxiSoC(id int) float64
	// TaxiState returns the state of a taxi.
	TaxiState(id int) TaxiState
	// NearStations returns the cached KStations nearest stations for a region.
	NearStations(region int) []geo.Neighbor
	// StationState returns the runtime state of a station (read-only use).
	StationState(id int) *station.State
	// SlotProfit returns the net CNY earned by taxi id during the last Step.
	SlotProfit(id int) float64
	// PESoFar returns taxi id's cumulative profit efficiency (CNY/h).
	PESoFar(id int) float64
	// FleetPEStats returns the mean and variance of the cumulative PE across
	// on-duty taxis.
	FleetPEStats() (mean, variance float64)
	// Results returns the accounting of the run.
	Results() *Results

	// SetHooks installs (or, with nil, removes) a perturbation engine.
	SetHooks(h Hooks)
	// SetRecorder installs (or, with nil, removes) the event recorder.
	SetRecorder(r Recorder)
	// SetTelemetry installs (or, with nil, removes) a metrics registry.
	SetTelemetry(r *telemetry.Registry)
}
