package pricing

import (
	"math"
	"testing"
)

func TestShenzhenTariffRates(t *testing.T) {
	tr := Shenzhen()
	if got := tr.Rate(OffPeak); got != 0.9 {
		t.Errorf("off-peak rate = %v, want 0.9", got)
	}
	if got := tr.Rate(Flat); got != 1.2 {
		t.Errorf("flat rate = %v, want 1.2", got)
	}
	if got := tr.Rate(Peak); got != 1.6 {
		t.Errorf("peak rate = %v, want 1.6", got)
	}
}

func TestShenzhenBandLayout(t *testing.T) {
	tr := Shenzhen()
	cases := []struct {
		min  int
		want Band
	}{
		{0, Flat},          // midnight
		{3 * 60, OffPeak},  // 3:00 overnight trough
		{7 * 60, Flat},     // 7:00 morning shoulder
		{10 * 60, Peak},    // 10:00 late morning
		{13 * 60, OffPeak}, // 13:00 lunch trough
		{15 * 60, Peak},    // 15:00 afternoon
		{17*60 + 30, OffPeak},
		{19 * 60, Peak},
		{23 * 60, Flat},
	}
	for _, c := range cases {
		if got := tr.BandAt(c.min); got != c.want {
			t.Errorf("BandAt(%d:%02d) = %v, want %v", c.min/60, c.min%60, got, c.want)
		}
	}
}

func TestBandAtWrapsAndNegatives(t *testing.T) {
	tr := Shenzhen()
	if tr.BandAt(24*60+180) != tr.BandAt(180) {
		t.Error("BandAt does not wrap past 1440")
	}
	if tr.BandAt(-60) != tr.BandAt(23*60) {
		t.Error("BandAt does not handle negative minutes")
	}
}

func TestNewTariffValidation(t *testing.T) {
	full := []BandSpan{{0, 1440, Flat}}
	if _, err := NewTariff(full, 1, 2, 3); err != nil {
		t.Fatalf("full coverage rejected: %v", err)
	}
	cases := []struct {
		name  string
		spans []BandSpan
	}{
		{"gap", []BandSpan{{0, 720, Flat}}},
		{"overlap", []BandSpan{{0, 800, Flat}, {700, 1440, Peak}}},
		{"inverted", []BandSpan{{100, 50, Flat}, {0, 1440, Peak}}},
		{"out of range", []BandSpan{{0, 1500, Flat}}},
		{"bad band", []BandSpan{{0, 1440, Band(9)}}},
	}
	for _, c := range cases {
		if _, err := NewTariff(c.spans, 1, 2, 3); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFareFlagFallOnly(t *testing.T) {
	f := ShenzhenFares()
	// A 1 km, 0-minute trip at noon: flag fall only.
	if got := f.Fare(1.0, 0, 12); got != 10.0 {
		t.Fatalf("short trip fare = %v, want 10", got)
	}
}

func TestFareDistanceAndTime(t *testing.T) {
	f := ShenzhenFares()
	// 10 km, 20 min, noon: 10 + 8*2.6 + 20*0.8 = 46.8
	want := 10 + 8*2.6 + 20*0.8
	if got := f.Fare(10, 20, 12); math.Abs(got-want) > 1e-9 {
		t.Fatalf("fare = %v, want %v", got, want)
	}
}

func TestFareNightSurcharge(t *testing.T) {
	f := ShenzhenFares()
	day := f.Fare(10, 20, 12)
	night := f.Fare(10, 20, 2)
	if math.Abs(night-day*1.3) > 1e-9 {
		t.Fatalf("night fare = %v, want %v", night, day*1.3)
	}
	// Window wraps: 23:00 is night, 6:00 is not.
	if !f.IsNight(23) || f.IsNight(6) || f.IsNight(12) {
		t.Fatal("IsNight window wrong")
	}
}

func TestFareNegativeInputsClamped(t *testing.T) {
	f := ShenzhenFares()
	if got := f.Fare(-5, -10, 12); got != f.FlagFallCNY {
		t.Fatalf("negative inputs fare = %v, want flag fall", got)
	}
}

func TestFareMonotoneInDistance(t *testing.T) {
	f := ShenzhenFares()
	prev := 0.0
	for km := 0.0; km < 50; km += 2.5 {
		fare := f.Fare(km, 15, 10)
		if fare < prev {
			t.Fatalf("fare decreased with distance at %v km", km)
		}
		prev = fare
	}
}

func TestBandString(t *testing.T) {
	if OffPeak.String() != "off-peak" || Flat.String() != "flat" || Peak.String() != "peak" {
		t.Fatal("Band.String wrong")
	}
	if Band(9).String() == "" {
		t.Fatal("unknown band should still format")
	}
}
