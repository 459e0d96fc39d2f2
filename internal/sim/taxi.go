package sim

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/energy"
	"repro/internal/geo"
)

// TaxiState is the simulator's per-vehicle state machine.
type TaxiState int

// Taxi states, mirroring the mobility decomposition of Fig. 1.
const (
	// Cruising: vacant, matchable, receives displacement actions.
	Cruising TaxiState = iota
	// Serving: passenger on board until tripEndMin.
	Serving
	// ToStation: driving to a charging station (part of idle time).
	ToStation
	// Queued: at a station waiting for a point (part of idle time).
	Queued
	// ChargingState: plugged in until the target SoC.
	ChargingState
	// Relocating: executing a Move action; unmatchable until arrival. The
	// time still counts as cruising (the taxi is seeking, just elsewhere).
	Relocating
)

// String implements fmt.Stringer.
func (s TaxiState) String() string {
	switch s {
	case Cruising:
		return "cruising"
	case Serving:
		return "serving"
	case ToStation:
		return "to-station"
	case Queued:
		return "queued"
	case ChargingState:
		return "charging"
	case Relocating:
		return "relocating"
	default:
		return fmt.Sprintf("TaxiState(%d)", int(s))
	}
}

// Options configures a simulation run.
type Options struct {
	// Days is the simulated horizon.
	Days int
	// ChargeTargetSoC is the SoC at which a charging session ends (default 0.95).
	ChargeTargetSoC float64
	// LowSoC is the forced-charge threshold η of the paper (default 0.20):
	// below it only charging actions are valid.
	LowSoC float64
	// AllowChargeSoC is the ceiling below which charging actions are offered
	// (default 0.60): a nearly full taxi is not offered charge actions.
	AllowChargeSoC float64
	// CruiseSpeedKmh is the effective crawl speed while seeking passengers
	// (default 12; slow, with stops).
	CruiseSpeedKmh float64
	// PatienceMin is how long a passenger waits before abandoning the
	// request (default 10 minutes — one slot).
	PatienceMin int
	// WarmupDays runs the fleet for this many days before accounting
	// starts, so metrics reflect steady state rather than the synchronized
	// initial battery levels (the paper evaluates a full month, where
	// start-up transients are negligible). Default 0.
	WarmupDays int
	// NoForecastFeature zeroes the demand-forecast component of every
	// observation. It is the ablation for the paper's "expected number of
	// passengers at the next time slot" global-state feature.
	NoForecastFeature bool
	// LearnedForecast replaces the oracle demand expectation in the
	// observation features with an online-learned predictor (historical
	// slot-of-day profile + real-time correction), matching the paper's
	// "predicted with historical and real-time data". The oracle remains
	// the default so experiments stay comparable.
	LearnedForecast bool
	// BalkFactor controls queue balking: a taxi arriving at a station whose
	// queue is ≥ BalkFactor × its point count drives on to the next nearest
	// station instead of joining (up to maxBalks redirects). Drivers do not
	// join hopeless queues; this bounds the damage of bad station choices
	// for every policy. Default 2; negative disables balking.
	BalkFactor float64
	// Shards is how many region shards advance the world concurrently
	// within a slot (default 1, clamped to the region count). It is
	// parallelism only: every shard count produces a byte-identical
	// trajectory.
	Shards int
}

// maxBalks caps redirects per charging attempt so a taxi eventually joins
// some queue even when the whole network is saturated.
const maxBalks = 3

// DefaultOptions returns the evaluation defaults.
func DefaultOptions(days int) Options {
	return Options{
		Days:            days,
		ChargeTargetSoC: 0.95,
		LowSoC:          0.20,
		AllowChargeSoC:  0.30,
		CruiseSpeedKmh:  12,
		PatienceMin:     10,
		BalkFactor:      2,
	}
}

func (o *Options) fillDefaults() {
	if o.Days <= 0 {
		o.Days = 1
	}
	if o.ChargeTargetSoC == 0 {
		o.ChargeTargetSoC = 0.95
	}
	if o.LowSoC == 0 {
		o.LowSoC = 0.20
	}
	if o.AllowChargeSoC == 0 {
		o.AllowChargeSoC = 0.30
	}
	if o.CruiseSpeedKmh == 0 {
		o.CruiseSpeedKmh = 12
	}
	if o.PatienceMin == 0 {
		o.PatienceMin = 10
	}
	if o.BalkFactor == 0 {
		o.BalkFactor = 2
	}
}

type taxi struct {
	id     int
	state  TaxiState
	region int
	batt   energy.Battery

	// Serving
	pickupMin  int
	tripEndMin int
	tripDest   int

	// Charging pipeline
	stationID    int
	departMin    int // when it left to charge (start of idle, t3)
	arriveMin    int // when it reaches the station
	plugMin      int
	chargeSoC0   float64
	chargeEnergy float64
	chargeCost   float64

	// balkCount counts redirects within the current charging attempt.
	balkCount int
	// chargeTarget is this session's stop SoC, jittered per event around
	// Options.ChargeTargetSoC: drivers unplug anywhere from "enough to keep
	// working" to a full pack, which is what spreads session durations over
	// the paper's 45-120 minute band (Fig. 3).
	chargeTarget float64

	// Cruise tracking. vacantSinceMin anchors seek-time accounting;
	// crawlFromMin anchors incremental crawl-energy accounting so energy
	// drains slot by slot rather than in a lump at match time.
	vacantSinceMin int
	crawlFromMin   int
	afterCharge    bool // next pickup is the first after a charge
	lastStation    int

	acct TaxiAccount
	// slotProfit accumulates fare − charge cost during the current Step;
	// trainers read it as the monetary part of the slot reward.
	slotProfit float64
}

// hourAt returns the hour of day of an absolute minute.
func hourAt(min int) int { return (min / 60) % 24 }

// travelMinutesAt converts a road distance to whole driving minutes at the
// traffic speed of minute m, with a one-minute floor.
func travelMinutesAt(distKm float64, m int) int {
	travelMin := int(math.Ceil(distKm / demand.SpeedKmh(hourAt(m)) * 60))
	if travelMin < 1 {
		travelMin = 1
	}
	return travelMin
}

// travelMinutesScaled is travelMinutesAt under a weather speed multiplier.
// Kept as a separate function so the clean path divides by the exact same
// float as before extended hooks existed.
func travelMinutesScaled(distKm float64, m int, scale float64) int {
	travelMin := int(math.Ceil(distKm / (demand.SpeedKmh(hourAt(m)) * scale) * 60))
	if travelMin < 1 {
		travelMin = 1
	}
	return travelMin
}

// geoDistKm returns the road distance between two points.
func geoDistKm(a, b geo.Point) float64 { return geo.Distance(a, b) * demand.RoadFactor }

// driveTracked consumes energy for km kilometres, accounting the distance
// and any energy deficit from an empty pack exactly.
func driveTracked(t *taxi, km float64) {
	if km <= 0 {
		return
	}
	need := km * t.batt.ConsumptionPerKm
	got := t.batt.Drive(km)
	t.acct.DistanceKm += km
	if need > got {
		t.acct.EnergyDeficitKWh += need - got
	}
}

// flushCruise closes the open cruise (seek-time) segment of a vacant taxi
// at minute m. Time only; crawl energy accrues via accrueCrawl.
func flushCruise(t *taxi, m int) {
	if mins := float64(m - t.vacantSinceMin); mins > 0 {
		t.acct.CruiseMin += mins
	}
	t.vacantSinceMin = m
}

// accrueCrawl charges the crawl energy of a vacant taxi for the interval
// since the last accrual up to minute m.
func accrueCrawl(t *taxi, m int, cruiseSpeedKmh float64) {
	mins := float64(m - t.crawlFromMin)
	if mins <= 0 {
		return
	}
	t.crawlFromMin = m
	if t.batt.Empty() {
		t.acct.StrandedMin += mins
	}
	driveTracked(t, mins/60*cruiseSpeedKmh)
}

// chargedStation returns the station a taxi last charged at when this is
// its first pickup since that charge, or -1.
func chargedStation(t *taxi) int {
	if t.afterCharge {
		return t.lastStation
	}
	return -1
}

// peFloorMin stabilizes mid-run PE estimates: a taxi that has been on duty
// only a few minutes would otherwise report a wildly noisy CNY/h figure
// (one early fare → PE of hundreds), which destabilizes the fairness term
// of the learning reward. Final metrics use Results.PEs (exact Eq. 2); this
// floor applies only to the in-run estimates (PESoFar, FleetPEStats).
const peFloorMin = 60.0
