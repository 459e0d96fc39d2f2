package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeResults builds a Results with the given per-trip cruise times,
// per-charge idle times, and per-taxi (revenue, on-duty hours) pairs.
func fakeResults(cruise []float64, idle []int, pe []struct{ rev, hours float64 }) *sim.Results {
	r := &sim.Results{SlotMinutes: 10}
	for i, c := range cruise {
		r.TripStats = append(r.TripStats, sim.TripStat{Taxi: 0, PickupMin: i * 60, CruiseMin: c})
	}
	for i, d := range idle {
		r.ChargeStats = append(r.ChargeStats, trace.ChargingEvent{
			VehicleID: 0, ArriveMin: i * 200, PlugMin: i*200 + d, FinishMin: i*200 + d + 60,
		})
	}
	for _, p := range pe {
		r.Accounts = append(r.Accounts, sim.TaxiAccount{
			RevenueCNY: p.rev,
			CruiseMin:  p.hours * 60, // all on-duty time booked as cruise
		})
	}
	r.ServedRequests = len(cruise)
	return r
}

func pes(vals ...float64) []struct{ rev, hours float64 } {
	out := make([]struct{ rev, hours float64 }, len(vals))
	for i, v := range vals {
		out[i] = struct{ rev, hours float64 }{rev: v, hours: 1}
	}
	return out
}

func TestPRCT(t *testing.T) {
	g := fakeResults([]float64{10, 10}, nil, pes(1))
	d := fakeResults([]float64{5, 5}, nil, pes(1))
	if got := PRCT(g, d); math.Abs(got-50) > 1e-9 {
		t.Fatalf("PRCT = %v, want 50", got)
	}
	// Worse strategy: negative.
	d2 := fakeResults([]float64{15, 15}, nil, pes(1))
	if got := PRCT(g, d2); math.Abs(got+50) > 1e-9 {
		t.Fatalf("PRCT = %v, want -50", got)
	}
	// Zero ground truth: defined as 0.
	g0 := fakeResults(nil, nil, pes(1))
	if got := PRCT(g0, d); got != 0 {
		t.Fatalf("PRCT with empty GT = %v", got)
	}
}

func TestPRIT(t *testing.T) {
	g := fakeResults(nil, []int{20, 40}, pes(1))
	d := fakeResults(nil, []int{10, 20}, pes(1))
	if got := PRIT(g, d); math.Abs(got-50) > 1e-9 {
		t.Fatalf("PRIT = %v, want 50", got)
	}
	// SD2-style worsening gives negative PRIT.
	d2 := fakeResults(nil, []int{40, 80}, pes(1))
	if got := PRIT(g, d2); math.Abs(got+100) > 1e-9 {
		t.Fatalf("PRIT = %v, want -100", got)
	}
}

func TestPIPE(t *testing.T) {
	g := fakeResults(nil, nil, pes(40, 40))
	d := fakeResults(nil, nil, pes(50, 50))
	if got := PIPE(g, d); math.Abs(got-25) > 1e-9 {
		t.Fatalf("PIPE = %v, want 25", got)
	}
}

func TestPIPF(t *testing.T) {
	g := fakeResults(nil, nil, pes(30, 50)) // variance 100
	d := fakeResults(nil, nil, pes(38, 42)) // variance 4
	if got := PIPF(g, d); math.Abs(got-96) > 1e-9 {
		t.Fatalf("PIPF = %v, want 96", got)
	}
	// Perfectly fair GT: defined as 0.
	g0 := fakeResults(nil, nil, pes(40, 40))
	if got := PIPF(g0, d); got != 0 {
		t.Fatalf("PIPF with zero-variance GT = %v", got)
	}
}

func TestFleetPEAndPF(t *testing.T) {
	r := fakeResults(nil, nil, pes(30, 50))
	if got := FleetPE(r); math.Abs(got-40) > 1e-9 {
		t.Fatalf("FleetPE = %v, want 40", got)
	}
	if got := ProfitFairness(r); math.Abs(got-100) > 1e-9 {
		t.Fatalf("PF = %v, want 100", got)
	}
}

func TestOffDutyTaxisExcluded(t *testing.T) {
	r := fakeResults(nil, nil, pes(40, 40))
	// Append a taxi that never went on duty.
	r.Accounts = append(r.Accounts, sim.TaxiAccount{})
	if got := FleetPE(r); math.Abs(got-40) > 1e-9 {
		t.Fatalf("off-duty taxi polluted FleetPE: %v", got)
	}
}

func TestHourlyBucketsAndReductions(t *testing.T) {
	g := &sim.Results{}
	d := &sim.Results{}
	// Hour 8: GT cruises 10 min, D cruises 6 min -> 40% reduction.
	g.TripStats = append(g.TripStats, sim.TripStat{PickupMin: 8 * 60, CruiseMin: 10})
	d.TripStats = append(d.TripStats, sim.TripStat{PickupMin: 8*60 + 30, CruiseMin: 6})
	prct := PRCTByHour(g, d)
	if math.Abs(prct[8]-40) > 1e-9 {
		t.Fatalf("PRCTByHour[8] = %v, want 40", prct[8])
	}
	if prct[9] != 0 {
		t.Fatalf("PRCTByHour[9] = %v, want 0 (no data)", prct[9])
	}
	// Idle at hour 3: GT 30 min vs D 15 min -> 50% reduction.
	g.ChargeStats = append(g.ChargeStats, trace.ChargingEvent{ArriveMin: 160, PlugMin: 190, FinishMin: 400})
	d.ChargeStats = append(d.ChargeStats, trace.ChargingEvent{ArriveMin: 175, PlugMin: 190, FinishMin: 400})
	prit := PRITByHour(g, d)
	if math.Abs(prit[3]-50) > 1e-9 {
		t.Fatalf("PRITByHour[3] = %v, want 50", prit[3])
	}
}

// TestZeroBaselineGuards pins the contract that every GT-relative metric is
// defined as 0 when the ground-truth baseline sums to nothing — exactly the
// inputs an all-stations-closed or zero-demand scenario produces. A missing
// guard here is a division by zero that surfaces as ±Inf/NaN in the report.
func TestZeroBaselineGuards(t *testing.T) {
	empty := &sim.Results{SlotMinutes: 10}
	d := fakeResults([]float64{5}, []int{10}, pes(40))
	for name, got := range map[string]float64{
		"PRCT": PRCT(empty, d),
		"PRIT": PRIT(empty, d),
		"PIPE": PIPE(empty, d),
		"PIPF": PIPF(empty, d),
	} {
		if got != 0 {
			t.Errorf("%s with empty baseline = %v, want 0", name, got)
		}
	}
	// Blackout case: both sides empty.
	for name, got := range map[string]float64{
		"PRCT": PRCT(empty, empty),
		"PRIT": PRIT(empty, empty),
		"PIPE": PIPE(empty, empty),
		"PIPF": PIPF(empty, empty),
	} {
		if got != 0 || math.IsNaN(got) {
			t.Errorf("%s empty-vs-empty = %v, want 0", name, got)
		}
	}
}

// TestHourlyMeansEmptyHours pins that hours without any trips or charges
// report a 0 mean rather than 0/0.
func TestHourlyMeansEmptyHours(t *testing.T) {
	empty := &sim.Results{}
	for h, v := range HourlyMeanCruise(empty) {
		if v != 0 || math.IsNaN(v) {
			t.Fatalf("HourlyMeanCruise[%d] on empty results = %v", h, v)
		}
	}
	for h, v := range HourlyMeanIdle(empty) {
		if v != 0 || math.IsNaN(v) {
			t.Fatalf("HourlyMeanIdle[%d] on empty results = %v", h, v)
		}
	}
	// One populated hour must not leak into the other 23.
	r := &sim.Results{}
	r.TripStats = append(r.TripStats, sim.TripStat{PickupMin: 5 * 60, CruiseMin: 4})
	r.ChargeStats = append(r.ChargeStats, trace.ChargingEvent{ArriveMin: 5 * 60, PlugMin: 5*60 + 12, FinishMin: 5*60 + 60})
	cruise, idle := HourlyMeanCruise(r), HourlyMeanIdle(r)
	for h := 0; h < 24; h++ {
		wantCruise, wantIdle := 0.0, 0.0
		if h == 5 {
			wantCruise, wantIdle = 4, 12
		}
		if cruise[h] != wantCruise {
			t.Fatalf("HourlyMeanCruise[%d] = %v, want %v", h, cruise[h], wantCruise)
		}
		if idle[h] != wantIdle {
			t.Fatalf("HourlyMeanIdle[%d] = %v, want %v", h, idle[h], wantIdle)
		}
	}
}
