package energy

import (
	"math"
	"testing"
	"testing/quick"
)

// fastCharger is a charger typical of the Shenzhen e-taxi stations: 60 kW
// nominal, tapering above 80% SoC down to 20% power.
var fastCharger = Charger{PowerKW: 60, TaperKneeSoC: 0.80, TaperFloor: 0.20}

func TestNewBYDe6(t *testing.T) {
	b := NewBYDe6(0.5)
	if b.CapacityKWh != 80 {
		t.Errorf("capacity = %v, want 80", b.CapacityKWh)
	}
	if math.Abs(b.ConsumptionPerKm-0.2) > 1e-12 {
		t.Errorf("consumption = %v, want 0.2", b.ConsumptionPerKm)
	}
	if b.EnergyKWh() != 40 {
		t.Errorf("energy = %v, want 40", b.EnergyKWh())
	}
}

func TestNewBYDe6ClampsSoC(t *testing.T) {
	if b := NewBYDe6(1.5); b.SoC != 1 {
		t.Errorf("SoC = %v, want 1", b.SoC)
	}
	if b := NewBYDe6(-0.2); b.SoC != 0 {
		t.Errorf("SoC = %v, want 0", b.SoC)
	}
}

func TestDriveConsumesEnergy(t *testing.T) {
	b := NewBYDe6(1.0)
	used := b.Drive(100)
	if math.Abs(used-20) > 1e-9 {
		t.Fatalf("100 km used %v kWh, want 20", used)
	}
	if math.Abs(b.SoC-0.75) > 1e-9 {
		t.Fatalf("SoC after 100 km = %v, want 0.75", b.SoC)
	}
}

func TestDriveBeyondRangeFloorsAtZero(t *testing.T) {
	b := NewBYDe6(0.1) // 40 km range
	used := b.Drive(100)
	if math.Abs(used-8) > 1e-9 {
		t.Fatalf("used %v kWh, want 8 (all that was there)", used)
	}
	if !b.Empty() {
		t.Fatalf("battery should be empty, SoC=%v", b.SoC)
	}
}

func TestDriveNegativeNoOp(t *testing.T) {
	b := NewBYDe6(0.5)
	if used := b.Drive(-10); used != 0 || b.SoC != 0.5 {
		t.Fatal("negative drive changed state")
	}
}

func TestDriveEnergyConservationProperty(t *testing.T) {
	f := func(soc, km float64) bool {
		soc = math.Abs(math.Mod(soc, 1))
		km = math.Abs(math.Mod(km, 500))
		b := NewBYDe6(soc)
		before := b.EnergyKWh()
		used := b.Drive(km)
		after := b.EnergyKWh()
		return math.Abs(before-used-after) < 1e-6 && used >= 0 && b.SoC >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargerPowerTaper(t *testing.T) {
	c := fastCharger
	if p := c.PowerAt(0.5); p != 60 {
		t.Errorf("power below knee = %v, want 60", p)
	}
	if p := c.PowerAt(0.8); p != 60 {
		t.Errorf("power at knee = %v, want 60", p)
	}
	if p := c.PowerAt(1.0); math.Abs(p-12) > 1e-9 {
		t.Errorf("power at full = %v, want 12 (20%% floor)", p)
	}
	mid := c.PowerAt(0.9)
	if mid >= 60 || mid <= 12 {
		t.Errorf("power at 0.9 = %v, want between floor and nominal", mid)
	}
}

func TestChargeDeliversEnergy(t *testing.T) {
	c := fastCharger
	b := NewBYDe6(0.2)
	got := c.Charge(&b, 60)
	// One hour at 60 kW from 0.2: all below knee, so exactly 60 kWh would
	// overfill? 0.2 -> +60/80 = +0.75 crosses the knee at 0.8 after 48 kWh.
	if got <= 48 || got > 60 {
		t.Fatalf("delivered %v kWh in 1 h from SoC 0.2", got)
	}
	if b.SoC <= 0.8 || b.SoC > 1 {
		t.Fatalf("SoC after 1 h = %v", b.SoC)
	}
}

func TestChargeNeverOverfills(t *testing.T) {
	c := fastCharger
	b := NewBYDe6(0.95)
	c.Charge(&b, 600)
	if b.SoC > 1 {
		t.Fatalf("SoC overfilled: %v", b.SoC)
	}
	if b.SoC < 0.999 {
		t.Fatalf("10 h should fully charge, SoC=%v", b.SoC)
	}
	if c.Charge(&b, 60) != 0 {
		t.Fatal("charging a full battery delivered energy")
	}
}

func TestChargeZeroOrNegativeMinutes(t *testing.T) {
	c := fastCharger
	b := NewBYDe6(0.5)
	if c.Charge(&b, 0) != 0 || c.Charge(&b, -5) != 0 {
		t.Fatal("zero/negative duration delivered energy")
	}
	if b.SoC != 0.5 {
		t.Fatal("state changed")
	}
}

func TestChargeConservationProperty(t *testing.T) {
	c := fastCharger
	f := func(soc, mins float64) bool {
		soc = math.Abs(math.Mod(soc, 1))
		mins = math.Abs(math.Mod(mins, 300))
		b := NewBYDe6(soc)
		before := b.EnergyKWh()
		got := c.Charge(&b, mins)
		return math.Abs(b.EnergyKWh()-(before+got)) < 1e-6 && b.SoC <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargeSessionMatchesPaperBand(t *testing.T) {
	// Paper finding (i): most charge sessions last 45-120 minutes. A typical
	// session charges from the 20% threshold to ~95% on a fast charger.
	c := fastCharger
	b := NewBYDe6(0.20)
	mins := 0
	for ; b.SoC < 0.95 && mins <= 24*60; mins++ {
		c.Charge(&b, 1)
	}
	if mins < 45 || mins > 120 {
		t.Fatalf("typical session = %d min, want 45-120 (paper Fig. 3 band)", mins)
	}
}

func TestChargerValidate(t *testing.T) {
	if err := fastCharger.Validate(); err != nil {
		t.Fatalf("fast charger invalid: %v", err)
	}
	bad := []Charger{
		{PowerKW: 0, TaperKneeSoC: 0.8, TaperFloor: 0.2},
		{PowerKW: -5, TaperKneeSoC: 0.8, TaperFloor: 0.2},
		{PowerKW: 60, TaperKneeSoC: 1.5, TaperFloor: 0.2},
		{PowerKW: 60, TaperKneeSoC: 0.8, TaperFloor: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad charger %d accepted", i)
		}
	}
}
