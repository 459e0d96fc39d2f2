package sim

import (
	"math"
	"testing"

	"repro/internal/synth"
)

func testEnv(t *testing.T, days int) *Core {
	t.Helper()
	city, err := synth.Build(synth.TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return New(city, DefaultOptions(days), 1)
}

// runStay advances the whole horizon with everyone staying put (charging is
// coerced automatically when forced).
func runStay(e *Core) {
	for !e.Done() {
		e.Step(nil)
	}
}

func TestActionIndexRoundTrip(t *testing.T) {
	for idx := 0; idx < NumActions; idx++ {
		a := ActionFromIndex(idx)
		if got := ActionIndex(a); got != idx {
			t.Fatalf("round trip %d -> %v -> %d", idx, a, got)
		}
	}
	if NumActions != 14 {
		t.Fatalf("NumActions = %d, want 14 (1 stay + 8 moves + 5 stations)", NumActions)
	}
}

func TestActionFromIndexPanics(t *testing.T) {
	for _, idx := range []int{-1, NumActions} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %d did not panic", idx)
				}
			}()
			ActionFromIndex(idx)
		}()
	}
}

func TestStepAdvancesClock(t *testing.T) {
	e := testEnv(t, 1)
	if e.Now() != 0 || e.Done() {
		t.Fatal("fresh env state wrong")
	}
	e.Step(nil)
	if e.Now() != e.SlotLen() {
		t.Fatalf("Now = %d after one step, want %d", e.Now(), e.SlotLen())
	}
	if e.Slot() != 1 {
		t.Fatalf("Slot = %d, want 1", e.Slot())
	}
}

func TestFullDayRunProducesActivity(t *testing.T) {
	e := testEnv(t, 1)
	runStay(e)
	if !e.Done() {
		t.Fatal("not done after full horizon")
	}
	res := e.Results()
	if res.Slots != 144 {
		t.Fatalf("slots = %d, want 144", res.Slots)
	}
	if res.ServedRequests == 0 {
		t.Fatal("no requests served in a whole day")
	}
	if len(res.TripStats) != res.ServedRequests {
		t.Fatalf("trip stats %d != served %d", len(res.TripStats), res.ServedRequests)
	}
	var revenue float64
	for _, a := range res.Accounts {
		revenue += a.RevenueCNY
	}
	if revenue <= 0 {
		t.Fatal("no revenue earned")
	}
}

func TestTimeAccountingConsistent(t *testing.T) {
	e := testEnv(t, 2)
	runStay(e)
	res := e.Results()
	horizon := float64(2 * 24 * 60)
	for i, a := range res.Accounts {
		if a.OnDutyMin() > horizon+1 {
			t.Fatalf("taxi %d on-duty %v min exceeds horizon %v", i, a.OnDutyMin(), horizon)
		}
		if a.CruiseMin < 0 || a.ServeMin < 0 || a.IdleMin < 0 || a.ChargeMin < 0 {
			t.Fatalf("taxi %d negative time component: %+v", i, a)
		}
	}
}

func TestChargingHappensAndIsAccounted(t *testing.T) {
	// Give every taxi a low battery so charging is forced quickly.
	city, err := synth.Build(synth.TestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.25
	}
	e := New(city, DefaultOptions(1), 2)
	runStay(e)
	res := e.Results()
	if len(res.ChargeStats) == 0 {
		t.Fatal("no charging events with a quarter-full fleet")
	}
	for _, ev := range res.ChargeStats {
		if ev.PlugMin < ev.ArriveMin {
			t.Fatalf("plug before departure: %+v", ev)
		}
		if ev.FinishMin <= ev.PlugMin {
			t.Fatalf("zero-length charge: %+v", ev)
		}
		if ev.EnergyKWh <= 0 || ev.CostCNY <= 0 {
			t.Fatalf("charge without energy/cost: %+v", ev)
		}
		if ev.EndSoC < ev.StartSoC {
			t.Fatalf("charge decreased SoC: %+v", ev)
		}
		if ev.StationID < 0 || ev.StationID >= city.Stations.Len() {
			t.Fatalf("invalid station: %+v", ev)
		}
	}
	// Charge costs must equal the sum over events per taxi.
	perTaxi := make([]float64, len(city.Fleet))
	for _, ev := range res.ChargeStats {
		perTaxi[ev.VehicleID] += ev.CostCNY
	}
	for i, a := range res.Accounts {
		if math.Abs(a.ChargeCostCNY-perTaxi[i]) > 1e-6 {
			t.Fatalf("taxi %d charge cost %v != events sum %v", i, a.ChargeCostCNY, perTaxi[i])
		}
	}
}

func TestChargeDurationInPaperBand(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.22
	}
	e := New(city, DefaultOptions(1), 3)
	runStay(e)
	res := e.Results()
	if len(res.ChargeStats) == 0 {
		t.Fatal("no charging events")
	}
	// Most sessions should fall in the paper's 45-120 min band (Fig. 3).
	inBand := 0
	for _, ev := range res.ChargeStats {
		d := ev.ChargeMin()
		if d >= 45 && d <= 120 {
			inBand++
		}
	}
	frac := float64(inBand) / float64(len(res.ChargeStats))
	if frac < 0.5 {
		t.Fatalf("only %.0f%% of charges in 45-120 min band", frac*100)
	}
}

func TestValidMaskSemantics(t *testing.T) {
	e := testEnv(t, 1)
	id := e.VacantTaxis()[0]

	// Healthy battery: stay + moves valid, charge masked iff SoC high.
	e.taxis[id].batt.SoC = 0.9
	mask := e.ValidMask(id)
	if !mask[0] {
		t.Fatal("stay masked for healthy taxi")
	}
	for k := 0; k < KStations; k++ {
		if mask[1+MaxNeighbors+k] {
			t.Fatal("charge offered above AllowChargeSoC")
		}
	}

	// Mid battery: charging offered alongside stay.
	e.taxis[id].batt.SoC = 0.25
	mask = e.ValidMask(id)
	if !mask[0] || !mask[1+MaxNeighbors] {
		t.Fatal("mid battery should offer stay and charge")
	}

	// Low battery: only charging.
	e.taxis[id].batt.SoC = 0.1
	mask = e.ValidMask(id)
	if mask[0] {
		t.Fatal("stay offered below LowSoC")
	}
	if !mask[1+MaxNeighbors] {
		t.Fatal("charge not offered below LowSoC")
	}

	// Move entries only for real neighbors.
	e.taxis[id].batt.SoC = 0.9
	mask = e.ValidMask(id)
	nbs := e.city.Partition.Region(e.taxis[id].region).Neighbors
	for i := 0; i < MaxNeighbors; i++ {
		want := i < len(nbs)
		if mask[1+i] != want {
			t.Fatalf("move mask[%d] = %v, want %v (%d neighbors)", i, mask[1+i], want, len(nbs))
		}
	}
}

func TestMoveActionChangesRegion(t *testing.T) {
	e := testEnv(t, 1)
	id := e.VacantTaxis()[0]
	from := e.TaxiRegion(id)
	nbs := e.city.Partition.Region(from).Neighbors
	socBefore := e.TaxiSoC(id)
	e.Step(map[int]Action{id: {Kind: Move, Arg: 0}})
	// Taxi may have been matched and be serving toward another region, but
	// its region must be the move destination or the trip destination.
	if e.TaxiState(id) == Cruising && e.TaxiRegion(id) != nbs[0] {
		t.Fatalf("region after move = %d, want %d", e.TaxiRegion(id), nbs[0])
	}
	if e.TaxiSoC(id) >= socBefore {
		t.Fatal("move consumed no energy")
	}
}

func TestChargeActionLeadsToCharging(t *testing.T) {
	e := testEnv(t, 1)
	id := e.VacantTaxis()[0]
	e.taxis[id].batt.SoC = 0.28
	e.Step(map[int]Action{id: {Kind: Charge, Arg: 0}})
	st := e.TaxiState(id)
	if st != ToStation && st != Queued && st != ChargingState {
		t.Fatalf("state after charge action = %v", st)
	}
	// Run to completion of the charge.
	for i := 0; i < 30 && !e.Done(); i++ {
		e.Step(nil)
		if e.TaxiState(id) == Cruising && e.taxis[id].batt.SoC > 0.9 {
			break
		}
	}
	if e.taxis[id].acct.ChargeEvents == 0 && e.TaxiState(id) != ChargingState && e.TaxiState(id) != Queued {
		t.Fatalf("charge never started/completed; state=%v soc=%v", e.TaxiState(id), e.taxis[id].batt.SoC)
	}
}

func TestInvalidActionCoerced(t *testing.T) {
	e := testEnv(t, 1)
	id := e.VacantTaxis()[0]
	e.taxis[id].batt.SoC = 0.9 // charge invalid
	e.Step(map[int]Action{id: {Kind: Charge, Arg: 0}})
	if e.InvalidActions() != 1 {
		t.Fatalf("invalid actions = %d, want 1", e.InvalidActions())
	}
	// Forced-charge coercion: low battery with a stay submission.
	id2 := e.VacantTaxis()[0]
	e.taxis[id2].batt.SoC = 0.1
	e.Step(map[int]Action{id2: {Kind: Stay}})
	st := e.TaxiState(id2)
	if st != ToStation && st != Queued && st != ChargingState {
		t.Fatalf("low-SoC stay not coerced to charge; state=%v", st)
	}
}

func TestObserveShapeAndMask(t *testing.T) {
	e := testEnv(t, 1)
	for _, id := range e.VacantTaxis() {
		obs := e.Observe(id)
		if len(obs.Features) != FeatureSize {
			t.Fatalf("feature width %d, want %d", len(obs.Features), FeatureSize)
		}
		for i, v := range obs.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d is %v", i, v)
			}
		}
		any := false
		for _, m := range obs.Mask {
			if m {
				any = true
			}
		}
		if !any {
			t.Fatal("observation with fully invalid mask")
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Results {
		e := New(city, DefaultOptions(1), 7)
		runStay(e)
		return e.Results()
	}
	a, b := run(), run()
	if a.ServedRequests != b.ServedRequests || a.UnservedRequests != b.UnservedRequests {
		t.Fatalf("same seed different matching: %d/%d vs %d/%d",
			a.ServedRequests, a.UnservedRequests, b.ServedRequests, b.UnservedRequests)
	}
	for i := range a.Accounts {
		if a.Accounts[i] != b.Accounts[i] {
			t.Fatalf("taxi %d accounts differ between identical runs", i)
		}
	}
}

func TestResetRestoresCleanState(t *testing.T) {
	e := testEnv(t, 1)
	runStay(e)
	e.Reset(1)
	if e.Now() != 0 || e.Done() {
		t.Fatal("Reset did not restore clock")
	}
	res := e.Results()
	if res.ServedRequests != 0 || len(res.ChargeStats) != 0 {
		t.Fatal("Reset did not clear accounting")
	}
	if len(e.VacantTaxis()) != len(e.city.Fleet) {
		t.Fatal("Reset did not restore fleet")
	}
}

func TestStepAfterDonePanics(t *testing.T) {
	e := testEnv(t, 1)
	runStay(e)
	defer func() {
		if recover() == nil {
			t.Fatal("Step after Done did not panic")
		}
	}()
	e.Step(nil)
}

func TestPEsAndProfit(t *testing.T) {
	e := testEnv(t, 1)
	runStay(e)
	res := e.Results()
	pes := res.PEs()
	if len(pes) == 0 {
		t.Fatal("no PEs")
	}
	for _, pe := range pes {
		if math.IsNaN(pe) || math.IsInf(pe, 0) {
			t.Fatalf("invalid PE %v", pe)
		}
	}
	// Fleet profit must equal sum over taxis.
	var want float64
	for _, a := range res.Accounts {
		want += a.ProfitCNY()
	}
	if math.Abs(res.FleetProfit()-want) > 1e-9 {
		t.Fatal("FleetProfit mismatch")
	}
}

func TestFirstCruiseTracking(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.22
	}
	e := New(city, DefaultOptions(2), 4)
	runStay(e)
	res := e.Results()
	mins, stations := res.FirstCruiseTimes()
	if len(mins) == 0 {
		t.Fatal("no first-cruise samples after forced charging")
	}
	for i := range mins {
		if mins[i] < 0 {
			t.Fatalf("negative first cruise %v", mins[i])
		}
		if stations[i] < 0 || stations[i] >= city.Stations.Len() {
			t.Fatalf("invalid station %d in first-cruise record", stations[i])
		}
	}
}

func TestSlotProfitMatchesFares(t *testing.T) {
	e := testEnv(t, 1)
	for i := 0; i < 6 && !e.Done(); i++ {
		before := e.Results().ServedRequests
		e.Step(nil)
		after := e.Results()
		// Sum of positive slot profits must equal fares of trips matched
		// this slot (charging costs are negative contributions).
		var fares float64
		for _, ts := range after.TripStats[before:] {
			fares += ts.FareCNY
		}
		var pos float64
		for id := range e.taxis {
			if p := e.SlotProfit(id); p > 0 {
				pos += p
			}
		}
		if math.Abs(pos-fares) > fares*0.01+1e-6 {
			t.Fatalf("slot %d: positive slot profit %v != new fares %v", i, pos, fares)
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 5)
	initial := make([]float64, len(city.Fleet))
	for i := range e.taxis {
		initial[i] = e.taxis[i].batt.EnergyKWh()
	}
	runStay(e)
	res := e.Results()
	var totalDeficit float64
	for i := range e.taxis {
		final := e.taxis[i].batt.EnergyKWh()
		drawn := res.Accounts[i].EnergyKWh
		if e.taxis[i].state == ChargingState {
			// A session still open at the horizon is not yet in the account.
			drawn += e.taxis[i].chargeEnergy
		}
		driven := res.Accounts[i].DistanceKm * e.taxis[i].batt.ConsumptionPerKm
		deficit := res.Accounts[i].EnergyDeficitKWh
		// Exact ledger: initial + charged − (distance·rate − deficit) = final.
		diff := initial[i] + drawn - (driven - deficit) - final
		if math.Abs(diff) > 1e-6 {
			t.Fatalf("taxi %d: energy ledger off by %v kWh", i, diff)
		}
		totalDeficit += deficit
	}
	// With the per-slot crawl drain and the forced-charge mask, batteries
	// should essentially never run dry.
	if totalDeficit > 1 {
		t.Fatalf("fleet energy deficit %v kWh; low-SoC trigger not working", totalDeficit)
	}
}

func TestFleetPEStats(t *testing.T) {
	e := testEnv(t, 1)
	for i := 0; i < 30 && !e.Done(); i++ {
		e.Step(nil)
	}
	mean, variance := e.FleetPEStats()
	if variance < 0 {
		t.Fatalf("negative variance %v", variance)
	}
	if math.IsNaN(mean) || math.IsNaN(variance) {
		t.Fatal("NaN PE stats")
	}
}
