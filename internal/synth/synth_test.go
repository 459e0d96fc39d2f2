package synth

import (
	"math"
	"testing"
)

func TestBuildDefault(t *testing.T) {
	city, err := Build(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if city.Partition.Len() != 491 {
		t.Errorf("regions = %d, want 491", city.Partition.Len())
	}
	if city.Stations.Len() != 123 {
		t.Errorf("stations = %d, want 123", city.Stations.Len())
	}
	if len(city.Fleet) != 1000 {
		t.Errorf("fleet = %d, want 1000", len(city.Fleet))
	}
	if city.SlotsPerDay() != 144 {
		t.Errorf("slots per day = %d, want 144", city.SlotsPerDay())
	}
}

func TestDemandCalibration(t *testing.T) {
	cfg := DefaultConfig(2)
	city, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := city.Demand.TotalExpectedPerDay()
	want := float64(cfg.TripsPerDay)
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("calibrated demand %v, want %v", got, want)
	}
}

func TestStationPointRatio(t *testing.T) {
	city, err := Build(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, s := range city.Stations.Stations() {
		points += s.Points
	}
	// Fleet:points ratio should be near the paper's 4:1.
	ratio := float64(len(city.Fleet)) / float64(points)
	if ratio < 2 || ratio > 8 {
		t.Fatalf("fleet:points ratio %v, want near 4", ratio)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(TestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(TestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Fleet {
		if a.Fleet[i] != b.Fleet[i] {
			t.Fatal("same seed produced different fleets")
		}
	}
	for i := 0; i < a.Stations.Len(); i++ {
		if a.Stations.Station(i).Loc != b.Stations.Station(i).Loc {
			t.Fatal("same seed produced different stations")
		}
	}
}

func TestBuildTestConfig(t *testing.T) {
	city, err := Build(TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if city.Partition.Len() != 60 || city.Stations.Len() != 12 || len(city.Fleet) != 60 {
		t.Fatalf("test config city wrong shape: %d regions %d stations %d fleet",
			city.Partition.Len(), city.Stations.Len(), len(city.Fleet))
	}
	for _, v := range city.Fleet {
		if v.HomeRegion < 0 || v.HomeRegion >= city.Partition.Len() {
			t.Fatalf("vehicle %d home region %d invalid", v.ID, v.HomeRegion)
		}
		if v.InitialSoC < 0.5 || v.InitialSoC > 0.95 {
			t.Fatalf("vehicle %d initial SoC %v out of range", v.ID, v.InitialSoC)
		}
	}
}

func TestNewBattery(t *testing.T) {
	city, err := Build(TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b := city.NewBattery(city.Fleet[0])
	if b.SoC != city.Fleet[0].InitialSoC {
		t.Fatalf("battery SoC %v, want %v", b.SoC, city.Fleet[0].InitialSoC)
	}
	if b.CapacityKWh != 80 {
		t.Fatalf("battery capacity %v, want 80 (BYD e6)", b.CapacityKWh)
	}
}

func TestValidate(t *testing.T) {
	good := TestConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"few regions", func(c *Config) { c.Regions = 2 }},
		{"no stations", func(c *Config) { c.Stations = 0 }},
		{"stations > regions", func(c *Config) { c.Stations = c.Regions + 1 }},
		{"no fleet", func(c *Config) { c.Fleet = 0 }},
		{"no trips", func(c *Config) { c.TripsPerDay = 0 }},
		{"bad slot", func(c *Config) { c.SlotMinutes = 7 }},
		{"zero slot", func(c *Config) { c.SlotMinutes = 0 }},
	}
	for _, c := range cases {
		cfg := TestConfig(1)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFullScaleConfigShape(t *testing.T) {
	cfg := FullScaleConfig(1)
	if cfg.Fleet != 20130 || cfg.Regions != 491 || cfg.Stations != 123 {
		t.Fatalf("full-scale config wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("full-scale config invalid: %v", err)
	}
}
