package sim

// Hook-level fault-injection tests. The scenario engine lives in
// internal/scenario (which imports sim, so these tests cannot use it);
// stubHooks stands in to exercise each perturbation channel in isolation.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// stubHooks implements Hooks from closures; nil fields mean "unperturbed",
// so each channel can be perturbed alone.
type stubHooks struct {
	closed      func(station, minute int) bool
	derate      func(station, minute int) int
	demand      func(region, minute int) float64
	fare        func(region, minute int) float64
	stale       func(region, minute int) bool
	battery     func(taxi int) float64
	speed       func(region, minute int) float64
	tariff      func(minute int) float64
	offDuty     func(taxi, minute int) bool
	consumption func(taxi int) float64
}

func (h stubHooks) StationClosed(s, m int) bool {
	return h.closed != nil && h.closed(s, m)
}

func (h stubHooks) StationDerate(s, m int) int {
	if h.derate == nil {
		return 0
	}
	return h.derate(s, m)
}

func (h stubHooks) DemandScale(r, m int) float64 {
	if h.demand == nil {
		return 1
	}
	return h.demand(r, m)
}

func (h stubHooks) FareScale(r, m int) float64 {
	if h.fare == nil {
		return 1
	}
	return h.fare(r, m)
}

func (h stubHooks) ObsStale(r, m int) bool {
	return h.stale != nil && h.stale(r, m)
}

func (h stubHooks) BatteryFactor(i int) float64 {
	if h.battery == nil {
		return 1
	}
	return h.battery(i)
}

func (h stubHooks) SpeedScale(r, m int) float64 {
	if h.speed == nil {
		return 1
	}
	return h.speed(r, m)
}

func (h stubHooks) TariffScale(m int) float64 {
	if h.tariff == nil {
		return 1
	}
	return h.tariff(m)
}

func (h stubHooks) OffDuty(taxi, m int) bool {
	return h.offDuty != nil && h.offDuty(taxi, m)
}

func (h stubHooks) ConsumptionFactor(taxi int) float64 {
	if h.consumption == nil {
		return 1
	}
	return h.consumption(taxi)
}

func TestOutageDivertsArrivals(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.25 // everyone needs to charge soon
	}
	e := New(city, DefaultOptions(1), 21)

	// Run once clean to find the busiest station, then close it all day.
	runStay(e)
	res := e.Results()
	counts := make(map[int]int)
	for _, ev := range res.ChargeStats {
		counts[ev.StationID]++
	}
	busiest, most := -1, 0
	for id, c := range counts {
		if c > most {
			busiest, most = id, c
		}
	}
	if busiest < 0 {
		t.Skip("no charging in baseline run")
	}

	e.SetHooks(stubHooks{closed: func(s, m int) bool {
		return s == busiest && m < 24*60
	}})
	e.Reset(21)
	runStay(e)
	res2 := e.Results()
	for _, ev := range res2.ChargeStats {
		if ev.StationID == busiest && ev.PlugMin < 24*60 {
			// Plugging in requires arriving, and arrivals divert during the
			// outage — unless every alternative was also closed (not the
			// case here).
			t.Fatalf("charging event at closed station %d (plug %d)", busiest, ev.PlugMin)
		}
	}
	// The fleet must still have charged somewhere.
	if len(res2.ChargeStats) == 0 {
		t.Fatal("outage wiped out all charging")
	}
}

func TestStationClosedRespectsWindow(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 22)
	e.SetHooks(stubHooks{closed: func(s, m int) bool {
		return s == 0 && m >= 100 && m < 200
	}})
	if e.stationClosedHook(0, 99) || e.stationClosedHook(0, 200) {
		t.Fatal("outage active outside its window")
	}
	if !e.stationClosedHook(0, 100) || !e.stationClosedHook(0, 199) {
		t.Fatal("outage inactive inside its window")
	}
	if e.stationClosedHook(1, 150) {
		t.Fatal("outage leaked to another station")
	}
}

func TestHooksPersistAcrossReset(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 23)
	e.SetHooks(stubHooks{closed: func(s, m int) bool { return s == 0 }})
	e.Reset(23)
	if !e.stationClosedHook(0, 100) {
		t.Fatal("Reset dropped the installed hooks")
	}
	e.SetHooks(nil)
	if e.stationClosedHook(0, 100) {
		t.Fatal("SetHooks(nil) did not remove the hooks")
	}
}

// Identity hooks must replay the clean run byte for byte: the golden
// baseline scenario is trustworthy only if installing a no-op engine
// perturbs nothing (in particular the demand RNG stream). stubHooks{}
// answers the identity on all ten methods; it goes onto a fresh environment
// (SetHooks re-derives the fleet there) and onto a used one before a Reset.
func TestIdentityHooksMatchCleanRun(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	run := func(install func(e *Core)) (string, *Results) {
		e := New(city, DefaultOptions(1), 31)
		install(e)
		var events []trace.Event
		e.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
		runStay(e)
		return trace.DigestEvents(events), e.Results()
	}
	cleanDigest, cleanRes := run(func(*Core) {})
	cases := []struct {
		name    string
		install func(e *Core)
	}{
		{"fresh-env", func(e *Core) { e.SetHooks(stubHooks{}) }},
		{"after-reset", func(e *Core) {
			runStay(e)
			e.SetHooks(stubHooks{})
			e.Reset(31)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digest, hookedRes := run(tc.install)
			if digest != cleanDigest {
				t.Fatalf("identity hooks changed the event stream: %s vs %s", digest, cleanDigest)
			}
			if cleanRes.ServedRequests != hookedRes.ServedRequests ||
				cleanRes.UnservedRequests != hookedRes.UnservedRequests {
				t.Fatalf("identity hooks changed service counts: %d/%d vs %d/%d",
					cleanRes.ServedRequests, cleanRes.UnservedRequests,
					hookedRes.ServedRequests, hookedRes.UnservedRequests)
			}
		})
	}
}

func TestDemandScaleZeroSilencesCity(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 32)
	e.SetHooks(stubHooks{demand: func(r, m int) float64 { return 0 }})
	e.Reset(32)
	runStay(e)
	res := e.Results()
	if res.ServedRequests != 0 || res.UnservedRequests != 0 {
		t.Fatalf("silenced city produced %d served / %d unserved requests",
			res.ServedRequests, res.UnservedRequests)
	}
}

// Fare scaling multiplies revenue without touching any behavioral choice:
// under the Stay policy a 2x city-wide shock exactly doubles total revenue.
func TestFareScaleDoublesRevenue(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 33)
	runStay(e)
	base := e.Results()

	e.SetHooks(stubHooks{fare: func(r, m int) float64 { return 2 }})
	e.Reset(33)
	runStay(e)
	shocked := e.Results()

	if base.ServedRequests == 0 {
		t.Skip("no trips in baseline run")
	}
	if shocked.ServedRequests != base.ServedRequests {
		t.Fatalf("fare shock changed trip count: %d vs %d",
			shocked.ServedRequests, base.ServedRequests)
	}
	var baseRev, shockedRev float64
	for i := range base.Accounts {
		baseRev += base.Accounts[i].RevenueCNY
		shockedRev += shocked.Accounts[i].RevenueCNY
	}
	if math.Abs(shockedRev-2*baseRev) > 1e-6*baseRev {
		t.Fatalf("2x fare shock: revenue %.4f, want %.4f", shockedRev, 2*baseRev)
	}
}

// During a GPS dropout window observations freeze at the last fresh value;
// the action mask stays current.
func TestObsStaleFreezesFeatures(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(34))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 34)
	// A pure dropout window over minutes: it covers slots 2 and 3 and lifts
	// at slot 4.
	slot := e.SlotLen()
	e.SetHooks(stubHooks{stale: func(r, m int) bool { return m >= 2*slot && m < 4*slot }})
	e.Reset(34)

	e.Step(nil) // slot 1: advance so features are non-trivial
	ids := e.VacantTaxis()
	if len(ids) == 0 {
		t.Skip("no vacant taxis after one slot")
	}
	id := ids[0]
	// Observation.Features is valid until the next Observe call; snapshot
	// it.
	fresh := append([]float64(nil), e.Observe(id).Features...)

	e.Step(nil)
	e.Step(nil) // slot 3, inside the dropout
	if e.TaxiState(id) != Cruising {
		t.Skip("probe taxi left the vacant pool")
	}
	during := e.Observe(id)
	if !reflect.DeepEqual(during.Features, fresh) {
		t.Fatal("features changed during GPS dropout")
	}
	if during.Mask != e.ValidMask(id) {
		t.Fatal("mask went stale during GPS dropout")
	}

	e.Step(nil) // slot 4, the dropout lifted
	if e.TaxiState(id) != Cruising {
		t.Skip("probe taxi left the vacant pool")
	}
	after := e.Observe(id)
	if reflect.DeepEqual(after.Features, fresh) {
		t.Fatal("features still frozen after the dropout lifted")
	}
}

func TestBatteryFactorAppliedAtReset(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(35))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 35)
	healthy := make([]float64, len(e.taxis))
	for i := range e.taxis {
		healthy[i] = e.taxis[i].batt.CapacityKWh
	}
	e.SetHooks(stubHooks{battery: func(i int) float64 {
		if i%2 == 0 {
			return 0.8
		}
		return 1
	}})
	for i := range e.taxis {
		want := healthy[i]
		if i%2 == 0 {
			want *= 0.8
		}
		if got := e.taxis[i].batt.CapacityKWh; math.Abs(got-want) > 1e-12 {
			t.Fatalf("taxi %d capacity %.3f, want %.3f", i, got, want)
		}
	}
	// Reset must re-apply factors, not compound them.
	e.Reset(35)
	for i := range e.taxis {
		want := healthy[i]
		if i%2 == 0 {
			want *= 0.8
		}
		if got := e.taxis[i].batt.CapacityKWh; math.Abs(got-want) > 1e-12 {
			t.Fatalf("after Reset: taxi %d capacity %.3f, want %.3f", i, got, want)
		}
	}
}

// A derated station accepts fewer simultaneous sessions. With every point
// but one knocked out at every station, the fleet still eventually charges
// (sessions serialize through the remaining points).
func TestDerateSerializesCharging(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(36))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.25
	}
	e := New(city, DefaultOptions(1), 36)
	e.SetHooks(stubHooks{derate: func(s, m int) int {
		return e.City().Stations.Station(s).Points - 1
	}})
	e.Reset(36)
	runStay(e)
	res := e.Results()
	if len(res.ChargeStats) == 0 {
		t.Fatal("derate to one point wiped out all charging")
	}
	// No station may ever host more simultaneous sessions than its single
	// effective point plus sessions that predate the derate (none here,
	// since the derate is active from minute 0).
	type window struct{ plug, finish int }
	byStation := make(map[int][]window)
	for _, ev := range res.ChargeStats {
		byStation[ev.StationID] = append(byStation[ev.StationID], window{ev.PlugMin, ev.FinishMin})
	}
	for sid, ws := range byStation {
		for i, a := range ws {
			overlap := 1
			for j, b := range ws {
				if i != j && a.plug < b.finish && b.plug < a.finish {
					overlap++
				}
			}
			if overlap > 1 {
				t.Fatalf("station %d ran %d concurrent sessions under a 1-point derate", sid, overlap)
			}
		}
	}
}
