package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property (DESIGN.md §6): energy is conserved across arbitrary drive/charge
// cycles — the pack's stored energy always equals the initial charge plus
// everything the chargers delivered minus everything driving drew, and the
// SoC never leaves [0, 1].
func TestBatteryEnergyConservation(t *testing.T) {
	prop := func(seed int64, initialSoC float64, ops uint8) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBYDe6(math.Abs(math.Mod(initialSoC, 1)))
		c := fastCharger
		initial := b.EnergyKWh()
		var delivered, drawn float64
		n := int(ops%50) + 1
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				drawn += b.Drive(r.Float64() * 120)
			} else {
				delivered += c.Charge(&b, r.Float64()*90)
			}
			if b.SoC < 0 || b.SoC > 1 {
				t.Logf("SoC %v out of range", b.SoC)
				return false
			}
		}
		want := initial + delivered - drawn
		if math.Abs(b.EnergyKWh()-want) > 1e-6 {
			t.Logf("stored %.9f kWh, ledger says %.9f", b.EnergyKWh(), want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: driving an empty pack draws nothing, and charging a full pack
// delivers nothing — the boundary cases of the conservation ledger.
func TestBatteryBoundaryCases(t *testing.T) {
	prop := func(km, minutes float64) bool {
		km = math.Abs(math.Mod(km, 500))
		minutes = math.Abs(math.Mod(minutes, 300))
		empty := NewBYDe6(0)
		if d := empty.Drive(km); d != 0 {
			t.Logf("empty pack drew %.9f kWh over %.1f km", d, km)
			return false
		}
		full := NewBYDe6(1)
		c := fastCharger
		if e := c.Charge(&full, minutes); e != 0 {
			t.Logf("full pack accepted %.9f kWh over %.1f min", e, minutes)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
