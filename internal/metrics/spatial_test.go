package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func spatialResults(demand, served []int) *sim.Results {
	return &sim.Results{RegionDemand: demand, RegionServed: served}
}

func TestRegionDSRSkipsZeroDemand(t *testing.T) {
	r := spatialResults([]int{10, 0, 4}, []int{5, 0, 4})
	got := RegionDSR(r)
	want := []float64{0.5, 1}
	if len(got) != len(want) {
		t.Fatalf("DSR %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("DSR %v, want %v", got, want)
		}
	}
}

func TestRegionDSRNilWithoutTallies(t *testing.T) {
	if got := RegionDSR(&sim.Results{}); got != nil {
		t.Fatalf("pre-analytics results produced DSR %v, want nil", got)
	}
}

func TestSpatialFairnessPerfectlyEven(t *testing.T) {
	r := spatialResults([]int{10, 20, 30}, []int{5, 10, 15})
	if f := SpatialFairness(r); math.Abs(f-1) > 1e-9 {
		t.Fatalf("even service F_spatial = %v, want 1", f)
	}
	if g := GiniDSR(r); math.Abs(g) > 1e-9 {
		t.Fatalf("even service GiniDSR = %v, want 0", g)
	}
}

func TestSpatialFairnessPenalizesConcentration(t *testing.T) {
	even := spatialResults([]int{10, 10}, []int{8, 8})
	skew := spatialResults([]int{10, 10}, []int{10, 2})
	if fe, fs := SpatialFairness(even), SpatialFairness(skew); fs >= fe {
		t.Fatalf("skewed service F_spatial %v >= even %v", fs, fe)
	}
}

func TestSpatialFairnessVacuous(t *testing.T) {
	// No demand anywhere: fairness is vacuously 1 (and NaN-free), while the
	// accessibility floor reports NaN so "no signal" is distinguishable.
	r := spatialResults([]int{0, 0}, []int{0, 0})
	if f := SpatialFairness(r); f != 1 {
		t.Fatalf("vacuous F_spatial = %v, want 1", f)
	}
	if fl := AccessibilityFloor(r); !math.IsNaN(fl) {
		t.Fatalf("vacuous floor = %v, want NaN", fl)
	}
}

func TestAccessibilityFloorIsWorstRegion(t *testing.T) {
	r := spatialResults([]int{10, 10, 5}, []int{9, 3, 5})
	if fl := AccessibilityFloor(r); math.Abs(fl-0.3) > 1e-12 {
		t.Fatalf("floor = %v, want 0.3", fl)
	}
}

func TestBlackoutRendersWithoutNaN(t *testing.T) {
	// Total demand blackout: every region demanded nothing, so the
	// accessibility floor is NaN ("no signal"). The formatters must not leak
	// that NaN — text renders "n/a" and JSON encodes null (raw NaN makes
	// encoding/json fail outright, taking the whole report with it).
	fl := AccessibilityFloor(spatialResults([]int{0, 0}, []int{0, 0}))
	if !math.IsNaN(fl) {
		t.Fatalf("blackout FloorDSR = %v, want NaN", fl)
	}
	if got := FormatRatio(fl); got != "n/a" {
		t.Fatalf("FormatRatio(NaN) = %q, want \"n/a\"", got)
	}
	if got := string(JSONFloat(fl)); got != "null" {
		t.Fatalf("JSONFloat(NaN) = %s, want null", got)
	}
}

func TestFormatRatioFinite(t *testing.T) {
	if got := FormatRatio(0.25); got != "0.250" {
		t.Fatalf("FormatRatio(0.25) = %q, want \"0.250\"", got)
	}
}

func TestJSONFloatRoundTrips(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0.5, "0.5"},
		{math.NaN(), "null"},
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
	}
	for _, tc := range cases {
		if got := string(JSONFloat(tc.in)); got != tc.want {
			t.Fatalf("JSONFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
