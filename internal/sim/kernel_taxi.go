package sim

// Per-taxi transition rules of the kernel. Each touches only taxis and
// stations the kernel owns; the rules kernel.go lists keep the outcome
// independent of the shard count, and any drift is a bug the
// shard-invariance battery should catch.

import (
	"math"
	"slices"

	"repro/internal/demand"
	"repro/internal/trace"
)

// record buffers an event for the slot's canonical merge. Buffering is
// skipped entirely when no recorder is installed so benchmarks pay nothing.
func (kn *kernel) record(ev trace.Event) {
	if kn.c.rec != nil {
		kn.events = append(kn.events, ev)
	}
}

// wakeOrEmigrate schedules t's next arrival locally, or hands the taxi to
// the barrier router when its new region belongs to another kernel (the
// adopting kernel schedules the wake-up instead).
func (kn *kernel) wakeOrEmigrate(t *taxi) {
	if kn.c.regionOwner[t.region] == kn.idx {
		kn.cal.push(t.arriveMin, t.id)
	} else {
		kn.outbox = append(kn.outbox, t.id)
	}
}

// removeOwned deletes id from the kernel's ownership set.
func (kn *kernel) removeOwned(id int) {
	kn.owned.remove(id)
}

// adopt inserts id into the kernel's ownership set and schedules the
// wake-up its state requires.
func (kn *kernel) adopt(id int) {
	kn.owned.add(id)
	t := &kn.c.taxis[id]
	switch t.state {
	case ToStation, Relocating:
		kn.cal.push(t.arriveMin, id)
	case Serving:
		// Serving taxis migrate only at dropoff (as Cruising); keep a
		// defensive wake-up in case that invariant ever breaks.
		kn.cal.push(t.tripEndMin, id)
	}
}

// applyAction executes a displacement decision for owned taxi id, coercing
// a mask-invalid submission to the nearest station when the taxi must
// charge and to Stay otherwise. The validity test is ValidMask's rule
// evaluated directly for the submitted action, skipping construction of the
// full mask on this per-taxi hot path.
func (kn *kernel) applyAction(id int, a Action) {
	c := kn.c
	t := &c.taxis[id]
	mustCharge := t.batt.SoC < LowSoC

	valid := false
	switch a.Kind {
	case Stay:
		valid = !mustCharge
	case Move:
		if !mustCharge && a.Arg >= 0 && a.Arg < MaxNeighbors {
			valid = a.Arg < len(c.city.Partition.Region(t.region).Neighbors)
		}
	case Charge:
		if (mustCharge || t.batt.SoC < AllowChargeSoC) && a.Arg >= 0 && a.Arg < KStations {
			valid = a.Arg < len(c.nearStations[t.region])
		}
	}
	if !valid {
		kn.invalid++
		if mustCharge {
			a = Action{Kind: Charge, Arg: 0}
		} else {
			a = Action{Kind: Stay}
		}
	}

	switch a.Kind {
	case Stay:
		// Nothing: the taxi keeps cruising in place.
	case Move:
		nbs := c.city.Partition.Region(t.region).Neighbors
		dest := nbs[a.Arg]
		distKm := c.nbDistKm[t.region][a.Arg]
		travelMin := c.travelMinutes(distKm, t.region, c.nowMin)
		accrueCrawl(t, c.nowMin)
		driveTracked(t, distKm)
		kn.record(trace.Event{TimeMin: c.nowMin, Taxi: t.id, Region: t.region, Kind: trace.EvMove, A: dest, B: -1})
		c.tel.relocations.Inc()
		t.state = Relocating
		t.arriveMin = c.nowMin + travelMin
		t.crawlFromMin = t.arriveMin
		t.region = dest
		kn.wakeOrEmigrate(t)
	case Charge:
		ns := c.nearStations[t.region]
		st := ns[a.Arg]
		distKm := st.DistKm * demand.RoadFactor
		travelMin := c.travelMinutes(distKm, t.region, c.nowMin)
		flushCruise(t, c.nowMin)
		accrueCrawl(t, c.nowMin)
		driveTracked(t, distKm)
		kn.record(trace.Event{TimeMin: c.nowMin, Taxi: t.id, Region: t.region, Kind: trace.EvChargeSeek, A: st.Label, B: -1})
		t.state = ToStation
		t.stationID = st.Label
		t.departMin = c.nowMin
		t.arriveMin = c.nowMin + travelMin
		t.balkCount = 0
		t.region = c.stationInfo[st.Label].Region
		kn.wakeOrEmigrate(t)
	}
}

// matchRegion assigns region r's waiting requests to its owned candidates,
// longest-waiting taxi first (ties to the lowest taxi ID), appending the
// requests left over to unmatched and returning it; the caller passes the
// pending buffer's emptied storage so no alias to reqs is created.
// Serving a request mutates only the served taxi,
// so every other candidate's state and vacancy age are frozen for the whole
// call — one packed sort up front replaces an O(reqs×cands) rescan, and
// each match pops the front of the sorted pool. The lowest-ID tie-break is
// a pure function of region state, so it is identical at every shard count.
func (kn *kernel) matchRegion(r int, reqs, unmatched []demand.Request) []demand.Request {
	c := kn.c
	kn.keyBuf = kn.keyBuf[:0]
	for _, id := range kn.cands[r] {
		t := &c.taxis[id]
		if t.state != Cruising && t.state != Relocating {
			continue
		}
		kn.keyBuf = append(kn.keyBuf, uint64(t.vacantSinceMin)<<24|uint64(id))
	}
	slices.Sort(kn.keyBuf)
	pool := kn.keyBuf
	for i := range reqs {
		if len(pool) == 0 {
			unmatched = append(unmatched, reqs[i])
			continue
		}
		id := int(pool[0] & (1<<24 - 1))
		pool = pool[1:]
		kn.serve(id, &reqs[i])
	}
	return unmatched
}

// serve puts owned taxi id on the trip described by req, drawing the
// approach distance from the request's region stream.
func (kn *kernel) serve(id int, req *demand.Request) {
	c := kn.c
	t := &c.taxis[id]
	approachKm := c.matchSrc[req.OriginRegion].Uniform(0.3, 1.5)
	speed := demand.SpeedKmh(hourAt(req.TimeMin))
	if s := c.speedScale(req.OriginRegion, req.TimeMin); s != 1 {
		speed *= s
	}
	approachMin := int(math.Ceil(approachKm / speed * 60))
	start := req.TimeMin
	if c.nowMin > start {
		start = c.nowMin
	}
	if t.state == Relocating && t.arriveMin > start {
		start = t.arriveMin
	}
	pickup := start + approachMin
	if pickup <= t.vacantSinceMin {
		pickup = t.vacantSinceMin + 1
	}
	cruiseMin := float64(pickup - t.vacantSinceMin)
	flushCruise(t, pickup)
	accrueCrawl(t, pickup)
	driveTracked(t, approachKm+req.DistanceKm)

	durMin := int(math.Ceil(req.DurationMin))
	if durMin < 1 {
		durMin = 1
	}
	t.state = Serving
	t.pickupMin = pickup
	t.tripEndMin = pickup + durMin
	t.tripDest = req.DestRegion

	t.acct.RevenueCNY += req.Fare
	t.acct.Trips++
	t.slotProfit += req.Fare
	c.tel.matches.Inc()
	kn.record(trace.Event{TimeMin: pickup, Taxi: id, Region: req.OriginRegion, Kind: trace.EvPickup, A: req.DestRegion, B: -1, V: req.Fare})

	kn.served++
	// req.OriginRegion is owned by this kernel, so the per-region served
	// tally is a race-free direct write.
	c.res.RegionServed[req.OriginRegion]++
	kn.trips = append(kn.trips, TripStat{
		Taxi:             id,
		PickupMin:        pickup,
		CruiseMin:        cruiseMin,
		FareCNY:          req.Fare,
		DistanceKm:       req.DistanceKm,
		DurMin:           req.DurationMin,
		Region:           req.OriginRegion,
		DestRegion:       req.DestRegion,
		Pickup:           req.Origin,
		Dropoff:          req.Dest,
		FirstAfterCharge: t.afterCharge,
		ChargedAtStation: chargedStation(t),
	})
	t.afterCharge = false
	kn.cal.push(t.tripEndMin, id)
}

// beginMinute applies station perturbations for the kernel's owned stations
// at minute m, in ascending station-ID order.
func (kn *kernel) beginMinute(m int) {
	c := kn.c
	if c.hooks == nil {
		return
	}
	for _, sid := range kn.stationIDs {
		st := c.stations[sid]
		closed := c.hooks.StationClosed(sid, m)
		if closed != c.closedNow[sid] {
			c.closedNow[sid] = closed
			c.tel.outageEdges.Inc()
			flag := 0
			if closed {
				flag = 1
			}
			kn.record(trace.Event{
				TimeMin: m, Taxi: -1, Region: st.Station().Region,
				Kind: trace.EvOutage, A: sid, B: flag,
			})
		}
		if d := clampInt(c.hooks.StationDerate(sid, m), 0, st.Station().Points); d != st.Derate() {
			c.tel.derateChanges.Inc()
			promoted := st.SetDerate(d)
			kn.record(trace.Event{
				TimeMin: m, Taxi: -1, Region: st.Station().Region,
				Kind: trace.EvDerate, A: sid, B: d,
			})
			for _, id := range promoted {
				kn.beginCharge(&c.taxis[id], m)
			}
		}
		if closed {
			for _, id := range st.DrainQueue() {
				c.tel.queueEvictions.Inc()
				t := &c.taxis[id]
				t.state = ToStation
				t.arriveMin = m
				kn.replanCharge(t, m, trace.EvReplan)
			}
		}
	}
}

// sweep processes the minute's due wake-ups and active charging sessions in
// one merged ascending-ID walk, then rebuilds the charging list.
func (kn *kernel) sweep(m int) {
	c := kn.c
	// The tariff band is a function of the minute alone; one lookup covers
	// every charging taxi this sweep touches.
	kn.rateNow = c.city.Tariff.Rate(c.city.Tariff.BandAt(m))
	if f := c.tariffScale(m); f != 1 {
		kn.rateNow *= f
	}
	kn.due = kn.cal.drainTo(kn.due[:0], m)
	slices.Sort(kn.due)

	di, ci := 0, 0
	for di < len(kn.due) || ci < len(kn.charging) {
		var id int
		switch {
		case di >= len(kn.due):
			id = kn.charging[ci]
		case ci >= len(kn.charging):
			id = kn.due[di]
		case kn.due[di] <= kn.charging[ci]:
			id = kn.due[di]
		default:
			id = kn.charging[ci]
		}
		if di < len(kn.due) && kn.due[di] == id {
			for di < len(kn.due) && kn.due[di] == id {
				di++
			}
			kn.dispatch(id, m)
		}
		if ci < len(kn.charging) && kn.charging[ci] == id {
			ci++
			if t := &c.taxis[id]; t.state == ChargingState {
				kn.chargeMinute(t, m)
			}
		}
	}

	// Sessions that reached their target unplug at m+1, in ascending ID
	// order (the walk above visits them so), once this minute's arrivals
	// have all seen their point occupied.
	for _, id := range kn.finishing {
		kn.finishCharge(&c.taxis[id], m+1)
	}
	kn.finishing = kn.finishing[:0]

	kn.nextCharging = kn.nextCharging[:0]
	for _, id := range kn.charging {
		if c.taxis[id].state == ChargingState {
			kn.nextCharging = append(kn.nextCharging, id)
		}
	}
	kn.charging, kn.nextCharging = kn.nextCharging, kn.charging
}

// dispatch handles one wake-up. Stale entries — the taxi has since changed
// state, rescheduled, or emigrated — are ignored by the guards.
func (kn *kernel) dispatch(id, m int) {
	c := kn.c
	if c.taxiOwner[id] != kn.idx {
		return
	}
	t := &c.taxis[id]
	switch t.state {
	case Serving:
		if m >= t.tripEndMin {
			t.acct.ServeMin += float64(t.tripEndMin - t.pickupMin)
			kn.record(trace.Event{TimeMin: t.tripEndMin, Taxi: t.id, Region: t.tripDest, Kind: trace.EvDropoff, A: -1, B: -1})
			t.state = Cruising
			t.region = t.tripDest
			t.vacantSinceMin = t.tripEndMin
			t.crawlFromMin = t.tripEndMin
		}
	case ToStation:
		if m >= t.arriveMin {
			if c.stationClosedHook(t.stationID, m) || kn.shouldBalk(t) {
				t.balkCount++
				c.tel.balks.Inc()
				kn.replanCharge(t, m, trace.EvBalk)
				return
			}
			t.balkCount = 0
			if c.stations[t.stationID].Arrive(t.id) {
				kn.beginCharge(t, m)
			} else {
				t.state = Queued
				c.tel.queueJoins.Inc()
				kn.record(trace.Event{TimeMin: m, Taxi: t.id, Region: t.region, Kind: trace.EvQueue, A: t.stationID, B: -1})
			}
		}
	case Relocating:
		if m >= t.arriveMin {
			t.state = Cruising
			t.crawlFromMin = m
		}
	}
}

// shouldBalk reports whether the queue at t's (always owned) target station
// is hopeless: its queue is at least balkFactor × its point count.
func (kn *kernel) shouldBalk(t *taxi) bool {
	if t.balkCount >= maxBalks {
		return false
	}
	st := kn.c.stations[t.stationID]
	threshold := balkFactor * float64(st.Station().Points)
	if threshold < 3 {
		threshold = 3
	}
	return float64(st.QueueLen()) >= threshold
}

// replanCharge redirects t to the least-loaded open nearby station using
// the slot's load snapshot (see kernel.go header). The redirect may cross a
// shard cut; the taxi then migrates at the minute barrier.
func (kn *kernel) replanCharge(t *taxi, m int, kind trace.EventKind) {
	c := kn.c
	cur := &c.stationInfo[t.stationID]
	ns := c.nearStations[cur.Region]
	best, bestLoad := -1, 0.0
	for _, nb := range ns {
		if nb.Label == t.stationID || c.stationClosedHook(nb.Label, m) {
			continue
		}
		load := c.loads[nb.Label] + nb.DistKm*0.1
		if best < 0 || load < bestLoad {
			best, bestLoad = nb.Label, load
		}
	}
	kn.record(trace.Event{
		TimeMin: m, Taxi: t.id, Region: t.region, Kind: kind,
		A: t.stationID, B: best,
	})
	if best < 0 {
		if !c.stationClosedHook(t.stationID, m) {
			t.balkCount = maxBalks
			if c.stations[t.stationID].Arrive(t.id) {
				kn.beginCharge(t, m)
			} else {
				t.state = Queued
				c.tel.queueJoins.Inc()
				kn.record(trace.Event{TimeMin: m, Taxi: t.id, Region: t.region, Kind: trace.EvQueue, A: t.stationID, B: -1})
			}
			return
		}
		t.arriveMin = m + 1
		kn.cal.push(t.arriveMin, t.id)
		return
	}
	distKm := geoDistKm(cur.Loc, c.stationInfo[best].Loc)
	travelMin := c.travelMinutes(distKm, cur.Region, m)
	driveTracked(t, distKm)
	t.stationID = best
	t.arriveMin = m + travelMin
	t.region = c.stationInfo[best].Region
	kn.wakeOrEmigrate(t)
}

// beginCharge marks the plug-in of t at minute m. The session's first
// charging minute is m+1 (see the K-invariance rules in kernel.go); the jitter
// draw comes from the station's stream.
func (kn *kernel) beginCharge(t *taxi, m int) {
	c := kn.c
	t.state = ChargingState
	t.plugMin = m
	t.chargeTarget = t.batt.SoC + 0.3 + c.stationSrc[t.stationID].Uniform(0, 0.55)
	if t.chargeTarget > chargeCapSoC {
		t.chargeTarget = chargeCapSoC
	}
	t.chargeSoC0 = t.batt.SoC
	t.chargeEnergy = 0
	t.chargeCost = 0
	idle := float64(m - t.departMin)
	t.acct.IdleMin += idle
	c.tel.idleMin.Observe(idle)
	kn.chargeStarts[hourAt(m)]++
	kn.record(trace.Event{TimeMin: m, Taxi: t.id, Region: t.region, Kind: trace.EvPlug, A: t.stationID, B: -1})
	kn.pendingPlug = append(kn.pendingPlug, t.id)
}

// chargeMinute integrates one minute of charging for t at minute m.
func (kn *kernel) chargeMinute(t *taxi, m int) {
	c := kn.c
	ch := &c.stationInfo[t.stationID].Charger
	delivered := ch.Charge(&t.batt, 1)
	cost := delivered * kn.rateNow
	t.chargeEnergy += delivered
	t.chargeCost += cost
	t.slotProfit -= cost
	if t.batt.SoC >= t.chargeTarget {
		kn.finishing = append(kn.finishing, t.id)
	}
}

// finishCharge unplugs t at minute m, promotes the queue head (whose first
// charging minute is the next sweep), and releases t to cruising.
func (kn *kernel) finishCharge(t *taxi, m int) {
	c := kn.c
	promoted := c.stations[t.stationID].Finish(t.id)
	if promoted >= 0 {
		kn.beginCharge(&c.taxis[promoted], m)
	}
	t.acct.ChargeMin += float64(m - t.plugMin)
	t.acct.ChargeCostCNY += t.chargeCost
	t.acct.EnergyKWh += t.chargeEnergy
	t.acct.ChargeEvents++
	c.tel.chargeSessions.Inc()
	c.tel.chargeMin.Observe(float64(m - t.plugMin))
	kn.charges = append(kn.charges, trace.ChargingEvent{
		VehicleID: t.id,
		StationID: t.stationID,
		ArriveMin: t.departMin,
		PlugMin:   t.plugMin,
		FinishMin: m,
		EnergyKWh: t.chargeEnergy,
		CostCNY:   t.chargeCost,
		StartSoC:  t.chargeSoC0,
		EndSoC:    t.batt.SoC,
	})
	kn.record(trace.Event{TimeMin: m, Taxi: t.id, Region: c.stationInfo[t.stationID].Region, Kind: trace.EvUnplug, A: t.stationID, B: -1, V: t.chargeEnergy})
	t.state = Cruising
	t.region = c.stationInfo[t.stationID].Region
	t.vacantSinceMin = m
	t.crawlFromMin = m
	t.afterCharge = true
	t.lastStation = t.stationID
}

// activatePlugs merges this minute's plug-ins into the sorted charging list
// so their first integration happens next minute.
func (kn *kernel) activatePlugs() {
	if len(kn.pendingPlug) == 0 {
		return
	}
	slices.Sort(kn.pendingPlug)
	kn.nextCharging = kn.nextCharging[:0]
	i, j := 0, 0
	for i < len(kn.charging) || j < len(kn.pendingPlug) {
		switch {
		case i >= len(kn.charging):
			kn.nextCharging = append(kn.nextCharging, kn.pendingPlug[j])
			j++
		case j >= len(kn.pendingPlug):
			kn.nextCharging = append(kn.nextCharging, kn.charging[i])
			i++
		case kn.charging[i] < kn.pendingPlug[j]:
			kn.nextCharging = append(kn.nextCharging, kn.charging[i])
			i++
		default:
			kn.nextCharging = append(kn.nextCharging, kn.pendingPlug[j])
			j++
		}
	}
	kn.charging, kn.nextCharging = kn.nextCharging, kn.charging
	kn.pendingPlug = kn.pendingPlug[:0]
}
