package scenario

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rng"
)

// zooSpec builds one spec containing every kind in the zoo, old and new.
func zooSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := NewBuilder("zoo").
		StationOutage(1, 420, 540).
		StationDerate(2, 1, 300, 600).
		DemandScale(-1, 0, 720, 1.4).
		DemandScale(3, 360, 720, 0.5).
		FareShock(2, 60, 660, 1.5).
		GPSDropout(1, 200, 260).
		BatteryDegradation(4, 1, 0.8).
		Weather(-1, 420, 660, 0.7).
		Weather(2, 480, 600, 0.85).
		TariffShift(600, 900, 1.6).
		BatteryCohort(3, 0, 1.2).
		ShiftChange(4, 2, 480, 560).
		AirportSurge(2, 360, 540, 2.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// enginesAgree compares every hook answer of two engines over a dense
// minute × region/station/taxi grid.
func enginesAgree(t *testing.T, e1, e2 *Engine, label string) {
	t.Helper()
	for m := 0; m <= 960; m += 13 {
		for r := 0; r < 5; r++ {
			if e1.DemandScale(r, m) != e2.DemandScale(r, m) ||
				e1.FareScale(r, m) != e2.FareScale(r, m) ||
				e1.SpeedScale(r, m) != e2.SpeedScale(r, m) ||
				e1.ObsStale(r, m) != e2.ObsStale(r, m) {
				t.Fatalf("%s: region hooks diverge at region %d minute %d", label, r, m)
			}
		}
		for st := 0; st < 4; st++ {
			if e1.StationClosed(st, m) != e2.StationClosed(st, m) ||
				e1.StationDerate(st, m) != e2.StationDerate(st, m) {
				t.Fatalf("%s: station hooks diverge at station %d minute %d", label, st, m)
			}
		}
		if e1.TariffScale(m) != e2.TariffScale(m) {
			t.Fatalf("%s: tariff scale diverges at minute %d", label, m)
		}
		for taxi := 0; taxi < 13; taxi++ {
			if e1.BatteryFactor(taxi) != e2.BatteryFactor(taxi) ||
				e1.ConsumptionFactor(taxi) != e2.ConsumptionFactor(taxi) ||
				e1.OffDuty(taxi, m) != e2.OffDuty(taxi, m) {
				t.Fatalf("%s: taxi hooks diverge at taxi %d minute %d", label, taxi, m)
			}
		}
	}
}

// permutation returns a random permutation of [0, n): a Fisher–Yates shuffle
// drawing one Intn per swap from src.
func permutation(src *rng.Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestMergeOrderIndependence is the satellite property test: for random
// permutations of a spec spanning all eleven kinds, the canonical encoding
// AND every compiled hook answer are bit-identical to the reference order.
// Sorting in Normalize is only sound because each kind's merge operation is
// commutative — this test is what pins that claim.
func TestMergeOrderIndependence(t *testing.T) {
	ref := zooSpec(t)
	refEnc, err := Encode(ref)
	if err != nil {
		t.Fatal(err)
	}
	refEngine := NewEngine(ref)
	src := rng.SplitStable(7, "merge-perm")
	for trial := 0; trial < 50; trial++ {
		perm := &Spec{Name: ref.Name, Description: ref.Description}
		for _, i := range permutation(src, len(ref.Events)) {
			perm.Events = append(perm.Events, ref.Events[i])
		}
		if err := perm.Validate(); err != nil {
			t.Fatalf("trial %d: permuted spec invalid: %v", trial, err)
		}
		permEnc, err := Encode(perm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refEnc, permEnc) {
			t.Fatalf("trial %d: permutation changed the canonical encoding:\n%s\nvs\n%s", trial, refEnc, permEnc)
		}
		perm.Normalize()
		enginesAgree(t, refEngine, NewEngine(perm), "permutation")
	}
}

// Non-finite factors must be rejected on the programmatic paths: NaN slips
// past a bare `< 0` comparison, breaks the canonical sort (making the
// encoding permutation-dependent), and poisons every factor product. JSON
// cannot encode NaN/Inf, so only specs built in Go (the Builder) carry them.
func TestNonFiniteFactorsRejected(t *testing.T) {
	cases := []struct {
		name  string
		build func(f float64) *Builder
	}{
		{"demand-scale", func(f float64) *Builder { return NewBuilder("x").DemandScale(0, 0, 60, f) }},
		{"fare-shock", func(f float64) *Builder { return NewBuilder("x").FareShock(0, 0, 60, f) }},
		{"battery-degradation", func(f float64) *Builder { return NewBuilder("x").BatteryDegradation(2, 0, f) }},
		{"weather", func(f float64) *Builder { return NewBuilder("x").Weather(0, 0, 60, f) }},
		{"tariff-shift", func(f float64) *Builder { return NewBuilder("x").TariffShift(0, 60, f) }},
		{"battery-cohort", func(f float64) *Builder { return NewBuilder("x").BatteryCohort(2, 0, f) }},
		{"airport-surge", func(f float64) *Builder { return NewBuilder("x").AirportSurge(0, 0, 60, f) }},
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, tc := range cases {
		for _, f := range bad {
			if _, err := tc.build(f).Build(); err == nil {
				t.Errorf("%s: accepted factor %v", tc.name, f)
			}
		}
	}
}

// The new kinds' schema rejections, mirroring TestParseRejections.
func TestNewKindRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"weather factor above 1", `{"name":"x","events":[{"kind":"weather","from_min":0,"to_min":60,"factor":1.5}]}`, "in (0, 1]"},
		{"weather zero factor", `{"name":"x","events":[{"kind":"weather","from_min":0,"to_min":60}]}`, "in (0, 1]"},
		{"tariff-shift with region", `{"name":"x","events":[{"kind":"tariff-shift","from_min":0,"to_min":60,"factor":1.5,"region":1}]}`, "region field is not allowed"},
		{"tariff-shift zero factor", `{"name":"x","events":[{"kind":"tariff-shift","from_min":0,"to_min":60}]}`, "factor must be > 0"},
		{"battery-cohort with window", `{"name":"x","events":[{"kind":"battery-cohort","from_min":0,"to_min":60,"factor":1.1}]}`, "time windows are not supported"},
		{"battery-cohort bad rem", `{"name":"x","events":[{"kind":"battery-cohort","factor":1.1,"cohort_mod":2,"cohort_rem":2}]}`, "out of [0, 2)"},
		{"shift-change with factor", `{"name":"x","events":[{"kind":"shift-change","from_min":0,"to_min":60,"factor":2,"cohort_mod":2}]}`, "factor field is not allowed"},
		{"shift-change with region", `{"name":"x","events":[{"kind":"shift-change","from_min":0,"to_min":60,"region":1,"cohort_mod":2}]}`, "region field is not allowed"},
		{"airport-surge without region", `{"name":"x","events":[{"kind":"airport-surge","from_min":0,"to_min":60,"factor":2}]}`, "missing region"},
		{"airport-surge zero factor", `{"name":"x","events":[{"kind":"airport-surge","from_min":0,"to_min":60,"region":1}]}`, "factor must be > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("accepted invalid spec %q", tc.src)
			}
			if !contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// Weather couples both axes: speed slows by f while demand rises by 2−f.
func TestWeatherCouplesSpeedAndDemand(t *testing.T) {
	s, err := NewBuilder("wx").Weather(2, 100, 200, 0.7).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	if got := e.SpeedScale(2, 150); got != 0.7 {
		t.Fatalf("SpeedScale = %v, want 0.7", got)
	}
	if got := e.DemandScale(2, 150); math.Abs(got-1.3) > 1e-12 {
		t.Fatalf("DemandScale = %v, want 1.3", got)
	}
	if e.SpeedScale(1, 150) != 1 || e.SpeedScale(2, 200) != 1 {
		t.Fatal("weather leaked outside its region/window")
	}
}

// Airport surges compile into demand AND fares for the one region.
func TestAirportSurgeCompilesToDemandAndFares(t *testing.T) {
	s, err := NewBuilder("ap").AirportSurge(3, 100, 200, 2.5).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	if e.DemandScale(3, 150) != 2.5 || e.FareScale(3, 150) != 2.5 {
		t.Fatalf("surge not applied: demand=%v fares=%v", e.DemandScale(3, 150), e.FareScale(3, 150))
	}
	if e.DemandScale(2, 150) != 1 || e.FareScale(3, 200) != 1 {
		t.Fatal("surge leaked outside its region/window")
	}
}

// Shift-change cohort and window scoping.
func TestShiftChangeScoping(t *testing.T) {
	s, err := NewBuilder("sc").ShiftChange(3, 1, 100, 200).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	if !e.OffDuty(1, 150) || !e.OffDuty(4, 150) {
		t.Fatal("cohort member not off duty inside the window")
	}
	if e.OffDuty(0, 150) || e.OffDuty(1, 99) || e.OffDuty(1, 200) {
		t.Fatal("off-duty leaked outside the cohort/window")
	}
}
