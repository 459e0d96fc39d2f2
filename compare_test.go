package fairmove

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// compareResults builds a Results with the given per-trip cruise times,
// per-charge idle times, and per-taxi profit efficiencies (one on-duty hour
// each, so revenue is PE).
func compareResults(cruise []float64, idle []int, pe ...float64) *sim.Results {
	r := &sim.Results{SlotMinutes: 10}
	for i, c := range cruise {
		r.TripStats = append(r.TripStats, sim.TripStat{PickupMin: i * 60, CruiseMin: c})
	}
	for i, d := range idle {
		r.ChargeStats = append(r.ChargeStats, trace.ChargingEvent{
			ArriveMin: i * 200, PlugMin: i*200 + d, FinishMin: i*200 + d + 60,
		})
	}
	for _, v := range pe {
		r.Accounts = append(r.Accounts, sim.TaxiAccount{RevenueCNY: v, CruiseMin: 60})
	}
	r.ServedRequests = len(cruise)
	return r
}

func TestCompareBundle(t *testing.T) {
	g := compareResults([]float64{10, 20}, []int{30}, 30, 50)
	d := compareResults([]float64{5, 10}, []int{15}, 45, 45)
	c := Compare("test", g, d)
	if c.Method != "test" {
		t.Fatal("name lost")
	}
	if math.Abs(c.PRCT-50) > 1e-9 || math.Abs(c.PRIT-50) > 1e-9 {
		t.Fatalf("comparison percentages wrong: %+v", c)
	}
	if math.Abs(c.PIPE-12.5) > 1e-9 {
		t.Fatalf("PIPE = %v, want 12.5", c.PIPE)
	}
	if c.PIPF != 100 {
		t.Fatalf("PIPF = %v, want 100 (perfectly fair)", c.PIPF)
	}
	if c.MedianCruiseMin != 7.5 || c.MedianIdleMin != 15 {
		t.Fatalf("medians wrong: %+v", c)
	}
	if !strings.Contains(c.String(), "PRCT") {
		t.Fatal("String() missing fields")
	}
}

func TestCompareCarriesSpatialFields(t *testing.T) {
	g := &sim.Results{RegionDemand: []int{10, 10}, RegionServed: []int{10, 10}}
	d := &sim.Results{RegionDemand: []int{10, 10}, RegionServed: []int{10, 2}}
	c := Compare("test", g, d)
	if c.FSpatial >= 1 || c.FSpatial <= 0 {
		t.Fatalf("FSpatial = %v, want in (0,1)", c.FSpatial)
	}
	if math.Abs(c.FloorDSR-0.2) > 1e-12 {
		t.Fatalf("FloorDSR = %v, want 0.2", c.FloorDSR)
	}
	if math.Abs(c.GiniDSR-(1-c.FSpatial)) > 1e-12 {
		t.Fatalf("GiniDSR %v inconsistent with FSpatial %v", c.GiniDSR, c.FSpatial)
	}

	// Total demand blackout: the floor has no signal. The row renders it as
	// "n/a" and JSON as null, and empty results format without NaN.
	empty := &sim.Results{RegionDemand: []int{0, 0}, RegionServed: []int{0, 0}}
	c = Compare("blackout", g, empty)
	if s := c.String(); strings.Contains(s, "NaN") || strings.Contains(s, "%!") || !strings.Contains(s, "floor=n/a") {
		t.Fatalf("blackout row renders %q", s)
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("blackout comparison does not marshal: %v", err)
	}
	if !strings.Contains(string(data), `"FloorDSR":null`) {
		t.Fatalf("blackout JSON = %s, want FloorDSR null", data)
	}
}
