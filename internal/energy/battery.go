// Package energy models the e-taxi battery and the fast-charging process.
//
// All Shenzhen e-taxis in the paper are BYD e6 vehicles with an 80 kWh pack
// and a 400 km range, i.e. 0.2 kWh/km. Fast charging runs at constant power
// up to a knee state-of-charge and then tapers linearly (the CC/CV profile),
// which is what stretches real charge sessions to the paper's observed
// 45-120 minute band (Fig. 3).
package energy

import (
	"fmt"
	"math"
)

// BYD e6 parameters used throughout the paper.
const (
	BYDe6CapacityKWh = 80.0
	BYDe6RatedKm     = 400.0 // driving range on a full pack
)

// Battery is the state of one vehicle's pack. SoC is the state of charge in
// [0, 1].
type Battery struct {
	CapacityKWh      float64
	ConsumptionPerKm float64 // kWh consumed per km driven
	SoC              float64
}

// NewBYDe6 returns a battery with the BYD e6 parameters at the given initial
// state of charge (clamped to [0, 1]).
func NewBYDe6(initialSoC float64) Battery {
	return Battery{
		CapacityKWh:      BYDe6CapacityKWh,
		ConsumptionPerKm: BYDe6CapacityKWh / BYDe6RatedKm,
		SoC:              clamp01(initialSoC),
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// EnergyKWh returns the energy currently stored.
func (b Battery) EnergyKWh() float64 { return b.SoC * b.CapacityKWh }

// Drive consumes energy for km kilometres and returns the energy drawn in
// kWh. If the pack cannot cover the distance the SoC floors at zero and the
// returned energy is what was actually available.
func (b *Battery) Drive(km float64) float64 {
	if km <= 0 {
		return 0
	}
	need := km * b.ConsumptionPerKm
	avail := b.EnergyKWh()
	if need > avail {
		need = avail
	}
	b.SoC = clamp01(b.SoC - need/b.CapacityKWh)
	return need
}

// Empty reports whether the pack is fully depleted.
func (b Battery) Empty() bool { return b.SoC <= 1e-12 }

// Charger describes a fast-charging point.
type Charger struct {
	PowerKW float64 // nominal constant-current power
	// TaperKneeSoC is the state of charge above which power tapers linearly
	// down to TaperFloor×PowerKW at SoC = 1.
	TaperKneeSoC float64
	TaperFloor   float64
}

// PowerAt returns the instantaneous charging power at the given SoC.
func (c Charger) PowerAt(soc float64) float64 {
	soc = clamp01(soc)
	if soc <= c.TaperKneeSoC || c.TaperKneeSoC >= 1 {
		return c.PowerKW
	}
	frac := (soc - c.TaperKneeSoC) / (1 - c.TaperKneeSoC)
	return c.PowerKW * (1 - frac*(1-c.TaperFloor))
}

// Charge advances a charging session by minutes and returns the energy
// delivered in kWh. Integration is per-minute, which is exact enough for the
// 10-minute simulation slots and keeps charge-time distributions smooth.
func (c Charger) Charge(b *Battery, minutes float64) float64 {
	if minutes <= 0 || b.SoC >= 1 {
		return 0
	}
	var delivered float64
	remaining := minutes
	for remaining > 0 && b.SoC < 1 {
		step := math.Min(1, remaining)
		p := c.PowerAt(b.SoC)
		e := p * step / 60
		headroom := (1 - b.SoC) * b.CapacityKWh
		if e > headroom {
			e = headroom
		}
		b.SoC = clamp01(b.SoC + e/b.CapacityKWh)
		delivered += e
		remaining -= step
	}
	return delivered
}

// Validate reports configuration errors.
func (c Charger) Validate() error {
	if c.PowerKW <= 0 {
		return fmt.Errorf("energy: charger power must be positive, got %v", c.PowerKW)
	}
	if c.TaperKneeSoC < 0 || c.TaperKneeSoC > 1 {
		return fmt.Errorf("energy: taper knee must be in [0,1], got %v", c.TaperKneeSoC)
	}
	if c.TaperFloor < 0 || c.TaperFloor > 1 {
		return fmt.Errorf("energy: taper floor must be in [0,1], got %v", c.TaperFloor)
	}
	return nil
}
