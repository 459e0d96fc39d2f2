package demand

import (
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/pricing"
	"repro/internal/rng"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	part, err := partition.Generate(1, 100, partition.ShenzhenBBox)
	if err != nil {
		t.Fatal(err)
	}
	return NewShenzhenLike(1, part)
}

func TestArchetypeAssignment(t *testing.T) {
	m := testModel(t)
	counts := make(map[Archetype]int)
	for _, a := range m.Archetypes() {
		counts[a]++
	}
	if counts[Airport] != 1 {
		t.Fatalf("airport regions = %d, want exactly 1", counts[Airport])
	}
	if counts[Downtown] == 0 || counts[Residential] == 0 || counts[Suburb] == 0 {
		t.Fatalf("archetype mix incomplete: %v", counts)
	}
}

func TestRateRushHourPeaks(t *testing.T) {
	m := testModel(t)
	// Find a downtown region.
	var dt int = -1
	for i, a := range m.Archetypes() {
		if a == Downtown {
			dt = i
			break
		}
	}
	if dt < 0 {
		t.Fatal("no downtown region")
	}
	night := m.Rate(dt, 3*60)   // 3:00
	morning := m.Rate(dt, 8*60) // 8:00 rush
	evening := m.Rate(dt, 18*60)
	if morning <= 2*night {
		t.Errorf("morning rush rate %v not well above night %v", morning, night)
	}
	if evening <= 2*night {
		t.Errorf("evening rush rate %v not well above night %v", evening, night)
	}
}

func TestRateNonNegativeAllHours(t *testing.T) {
	m := testModel(t)
	for r := 0; r < m.Partition().Len(); r++ {
		for h := 0; h < 24; h++ {
			if m.Rate(r, h*60) < 0 {
				t.Fatalf("negative rate region %d hour %d", r, h)
			}
		}
	}
}

func TestExpectedSlotDemandAdditive(t *testing.T) {
	m := testModel(t)
	full := m.ExpectedSlotDemand(0, 480, 10)
	half1 := m.ExpectedSlotDemand(0, 480, 5)
	half2 := m.ExpectedSlotDemand(0, 485, 5)
	if math.Abs(full-half1-half2) > 1e-9 {
		t.Fatalf("slot demand not additive: %v vs %v + %v", full, half1, half2)
	}
}

// TestExpectedSlotDemandMatchesMinuteSum pins ExpectedSlotDemand's
// once-per-hour Rate lookup bit-for-bit against the minute-by-minute sum it
// replaces, across every archetype curve (plus out-of-range archetypes,
// which get the flat curve), slots crossing an hour boundary and midnight,
// and slot lengths from 1 to 90 minutes.
func TestExpectedSlotDemandMatchesMinuteSum(t *testing.T) {
	m := testModel(t)
	const region = 0
	orig := m.profiles[region].Archetype
	defer func() { m.profiles[region].Archetype = orig }()
	archetypes := []Archetype{Downtown, Residential, Suburb, Industrial, Airport, numArchetypes, -1}
	for _, a := range archetypes {
		m.profiles[region].Archetype = a
		if a < 0 || a >= numArchetypes {
			want := m.Scale * m.profiles[region].BasePerHour / 60
			for h := 0; h < 24; h++ {
				if got := m.Rate(region, h*60); got != want {
					t.Fatalf("%v hour %d: rate %v, want flat %v", a, h, got, want)
				}
			}
		}
		for _, start := range []int{0, 55, 59, 480, 1375, 1435, 1439, 2*1440 + 50, -30, -61} {
			for _, slot := range []int{1, 7, 10, 15, 60, 90} {
				var want float64
				for dm := 0; dm < slot; dm++ {
					want += m.Rate(region, start+dm)
				}
				if got := m.ExpectedSlotDemand(region, start, slot); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%v start %d slot %d: got %v (%#x), minute sum %v (%#x)",
						a, start, slot, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestSampleProducesValidRequests(t *testing.T) {
	m := testModel(t)
	src := rng.New(42)
	reqs := sampleCity(m, src, 8*60, 10, nil) // morning rush slot
	if len(reqs) == 0 {
		t.Fatal("no requests in rush hour slot")
	}
	for _, r := range reqs {
		if r.TimeMin < 480 || r.TimeMin >= 490 {
			t.Fatalf("request time %d outside slot", r.TimeMin)
		}
		if r.OriginRegion < 0 || r.OriginRegion >= m.Partition().Len() {
			t.Fatalf("invalid origin region %d", r.OriginRegion)
		}
		if r.DestRegion < 0 || r.DestRegion >= m.Partition().Len() {
			t.Fatalf("invalid dest region %d", r.DestRegion)
		}
		if r.DistanceKm <= 0 {
			t.Fatalf("non-positive distance %v", r.DistanceKm)
		}
		if r.DurationMin <= 0 {
			t.Fatalf("non-positive duration %v", r.DurationMin)
		}
		if r.Fare <= 0 {
			t.Fatalf("non-positive fare %v", r.Fare)
		}
	}
}

func TestSampleVolumeMatchesExpectation(t *testing.T) {
	m := testModel(t)
	src := rng.New(7)
	var want float64
	for r := 0; r < m.Partition().Len(); r++ {
		want += m.ExpectedSlotDemand(r, 8*60, 10)
	}
	var got float64
	trials := 40
	for i := 0; i < trials; i++ {
		got += float64(len(sampleCity(m, src, 8*60, 10, nil)))
	}
	got /= float64(trials)
	if math.Abs(got-want) > want*0.15+2 {
		t.Fatalf("sampled volume %v, expected %v", got, want)
	}
}

func TestScaleScalesVolume(t *testing.T) {
	m := testModel(t)
	base := m.TotalExpectedPerDay()
	m.Scale = 2
	if got := m.TotalExpectedPerDay(); math.Abs(got-2*base) > 1e-6*base {
		t.Fatalf("scale=2 demand %v, want %v", got, 2*base)
	}
}

func TestAirportRevenueHighest(t *testing.T) {
	// Paper Fig. 7: per-trip revenue in the airport region is always high,
	// suburbs low.
	m := testModel(t)
	src := rng.New(3)
	var airport, suburb int = -1, -1
	for i, a := range m.Archetypes() {
		if a == Airport {
			airport = i
		}
		if a == Suburb && suburb < 0 {
			suburb = i
		}
	}
	af := m.MeanFare(src, airport, 10, 300)
	sf := m.MeanFare(src, suburb, 10, 300)
	if af <= sf {
		t.Fatalf("airport mean fare %v not above suburb %v", af, sf)
	}
}

func TestPerTripRevenueSpread(t *testing.T) {
	// Fig. 7: region mean fares range from several CNY to over ~100 CNY.
	m := testModel(t)
	src := rng.New(5)
	var lo, hi float64 = math.Inf(1), 0
	for r := 0; r < m.Partition().Len(); r += 5 {
		f := m.MeanFare(src, r, 18, 100)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi/lo < 1.6 {
		t.Fatalf("per-trip revenue spread too small: lo=%v hi=%v", lo, hi)
	}
}

func TestSpeedKmh(t *testing.T) {
	if SpeedKmh(8) >= SpeedKmh(3) {
		t.Error("rush hour should be slower than overnight")
	}
	if SpeedKmh(18) >= SpeedKmh(14) {
		t.Error("evening rush should be slower than mid-afternoon")
	}
	if SpeedKmh(25) != SpeedKmh(1) {
		t.Error("hour wrapping broken")
	}
	if SpeedKmh(-1) != SpeedKmh(23) {
		t.Error("negative hour wrapping broken")
	}
}

func TestSampleDeterministicGivenSource(t *testing.T) {
	part, _ := partition.Generate(1, 50, partition.ShenzhenBBox)
	m1 := NewShenzhenLike(9, part)
	m2 := NewShenzhenLike(9, part)
	r1 := sampleCity(m1, rng.New(4), 600, 10, nil)
	r2 := sampleCity(m2, rng.New(4), 600, 10, nil)
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Origin != r2[i].Origin || r1[i].Fare != r2[i].Fare {
			t.Fatal("same seeds produced different requests")
		}
	}
}

func TestNewValidation(t *testing.T) {
	part, _ := partition.Generate(1, 10, partition.ShenzhenBBox)
	fares := pricing.ShenzhenFares()
	profiles := make([]RegionProfile, 10)
	for i := range profiles {
		profiles[i] = RegionProfile{Region: i, Archetype: Suburb, BasePerHour: 1, Attractiveness: 1}
	}
	if _, err := New(part, profiles, fares); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if _, err := New(part, profiles[:5], fares); err == nil {
		t.Error("profile count mismatch accepted")
	}
	bad := append([]RegionProfile(nil), profiles...)
	bad[3].Region = 7
	if _, err := New(part, bad, fares); err == nil {
		t.Error("wrong region ID accepted")
	}
	neg := append([]RegionProfile(nil), profiles...)
	neg[2].BasePerHour = -1
	if _, err := New(part, neg, fares); err == nil {
		t.Error("negative base accepted")
	}
}

func TestSampleTripFromOrigin(t *testing.T) {
	m := testModel(t)
	src := rng.New(8)
	for i := 0; i < 50; i++ {
		req := m.sampleOne(src, 7, 100, false)
		if req.OriginRegion != 7 {
			t.Fatalf("origin region = %d, want 7", req.OriginRegion)
		}
	}
}

func TestExpectedFareTracksMonteCarlo(t *testing.T) {
	m := testModel(t)
	src := rng.New(12)
	for _, region := range []int{0, 10, 40, 90} {
		analytic := m.ExpectedFare(region, 10)
		mc := m.MeanFare(src, region, 10, 400)
		// The analytic estimate uses the mean distance; Jensen effects and
		// the minimum-trip floor allow moderate deviation.
		if analytic < mc*0.5 || analytic > mc*1.8 {
			t.Errorf("region %d: analytic fare %v vs Monte-Carlo %v", region, analytic, mc)
		}
	}
}

func TestExpectedFarePositiveEverywhere(t *testing.T) {
	m := testModel(t)
	for r := 0; r < m.Partition().Len(); r++ {
		for h := 0; h < 24; h++ {
			if f := m.ExpectedFare(r, h); f <= 0 {
				t.Fatalf("ExpectedFare(%d,%d) = %v", r, h, f)
			}
		}
	}
}

func TestGravityPrefersNearAttractive(t *testing.T) {
	m := testModel(t)
	src := rng.New(10)
	// Destinations from a downtown region should usually be nearby: mean
	// trip distance well below the city diameter.
	var dt int
	for i, a := range m.Archetypes() {
		if a == Downtown {
			dt = i
			break
		}
	}
	var sum float64
	n := 200
	for i := 0; i < n; i++ {
		sum += m.sampleOne(src, dt, 600, false).DistanceKm
	}
	mean := sum / float64(n)
	if mean > 30 {
		t.Fatalf("mean trip distance %v km too long for gravity model", mean)
	}
	if mean < 1 {
		t.Fatalf("mean trip distance %v km implausibly short", mean)
	}
}
