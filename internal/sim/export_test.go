package sim

// FleetAggregates returns the slot's one-walk fleet aggregates: vacant
// taxis per region (borrowed until the next Step) and the fleet's vacant
// and queued/to-station counts.
func (c *Core) FleetAggregates() (supply []int, vacant, queued int) {
	c.fleetAggregates()
	return c.supply, c.aggVacant, c.aggQueued
}
