package sim

// Verification surface of the sharded core: cross-shard handoff invariants
// and conservation ledgers the property-test battery checks after every
// barrier. None of this is on the hot path.

import "fmt"

// CheckInvariants verifies the ownership partition: every taxi is owned by
// exactly one kernel (the ownership bitmaps are disjoint and total), the
// owner index matches the taxi's region assignment (valid at slot
// boundaries, when all migrants have been routed), and every station's
// occupancy state is consistent.
func (c *Core) CheckInvariants() error {
	count := make([]int, len(c.taxis))
	var err error
	for k, kn := range c.kernels {
		k := k
		kn.owned.forEach(func(id int) {
			if err != nil {
				return
			}
			count[id]++
			if c.taxiOwner[id] != k {
				err = fmt.Errorf("taxi %d: in kernel %d's set but taxiOwner says %d", id, k, c.taxiOwner[id])
				return
			}
			if got := c.regionOwner[c.taxis[id].region]; got != k {
				err = fmt.Errorf("taxi %d: owned by kernel %d but its region %d belongs to kernel %d",
					id, k, c.taxis[id].region, got)
			}
		})
	}
	if err != nil {
		return err
	}
	for id, n := range count {
		if n != 1 {
			return fmt.Errorf("taxi %d: owned by %d kernels, want exactly 1", id, n)
		}
	}
	for _, st := range c.stations {
		if err := st.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// EnergyLedger is a taxi's full energy account for conservation checks:
// SoCKWh must equal the initial charge plus ChargedKWh minus consumption
// (DrivenKm×ConsumptionPerKm−DeficitKWh), at any shard count.
type EnergyLedger struct {
	SoCKWh           float64
	CapacityKWh      float64
	ConsumptionPerKm float64
	ChargedKWh       float64 // completed sessions plus the in-progress one
	DrivenKm         float64
	DeficitKWh       float64
}

// TaxiEnergyLedger returns the energy ledger of a taxi. The account fields
// reset at the warmup boundary, so conservation holds exactly only when
// Options.WarmupDays is zero.
func (c *Core) TaxiEnergyLedger(id int) EnergyLedger {
	t := &c.taxis[id]
	charged := t.acct.EnergyKWh
	if t.state == ChargingState {
		// chargeEnergy is the in-progress session; after finishCharge folds
		// it into acct.EnergyKWh it stays set until the next plug-in, so it
		// only counts while the taxi is actually on a charger.
		charged += t.chargeEnergy
	}
	return EnergyLedger{
		SoCKWh:           t.batt.SoC * t.batt.CapacityKWh,
		CapacityKWh:      t.batt.CapacityKWh,
		ConsumptionPerKm: t.batt.ConsumptionPerKm,
		ChargedKWh:       charged,
		DrivenKm:         t.acct.DistanceKm,
		DeficitKWh:       t.acct.EnergyDeficitKWh,
	}
}

// GeneratedRequests returns how many requests have been sampled since Reset
// (counted at slot barriers). With WarmupDays zero it satisfies
// generated == served + unserved + pending at every slot boundary.
func (c *Core) GeneratedRequests() int { return c.generated }

// PendingRequests returns how many sampled requests are still waiting.
func (c *Core) PendingRequests() int {
	n := 0
	for _, kn := range c.kernels {
		for _, reqs := range kn.pending {
			n += len(reqs)
		}
	}
	return n
}
