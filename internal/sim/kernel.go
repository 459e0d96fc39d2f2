package sim

// The simulator: a region-sharded state-transition core. Core holds the
// world state (fleet, stations, demand, accounting) and splits the city's
// regions across K kernels; each kernel advances only the taxis it owns, so
// Step (engine.go) can run kernels concurrently within a slot and
// synchronize at deterministic barriers. Every RNG stream is split per
// region or per station, never per kernel, so the realization is identical
// for any K — shards=1 and shards=N produce byte-identical traces.
//
// Ownership rule: a taxi belongs to the kernel owning its current region.
// Region changes that can cross a shard cut happen at barriers only:
//
//	Charge/Move actions   retarget the region at apply time; the migrant is
//	                      routed serially right after the apply phase.
//	Balk/replan redirects retarget mid-minute; routed at the minute barrier
//	                      (arrival is ≥ m+1 away, so nothing is missed).
//	Dropoffs              set the trip destination; the now-cruising taxi is
//	                      routed at the end-of-slot barrier (it cannot be
//	                      matched or act before the next slot anyway).
//
// Time-driven transitions run off a per-kernel event calendar plus a sorted
// active-charging list, so a minute costs O(events) instead of an O(fleet)
// sweep. Stale wake-ups are tolerated: dispatch re-checks state and time.
//
// Rules that keep the trajectory independent of K:
//
//   - Every plug-in integrates its first charging minute at m+1, and a
//     session that reaches its target during minute m releases its point
//     at m+1, after every arrival of minute m — so a point never serves two
//     sessions in one minute, whatever the IDs of the taxis involved.
//   - Charge replanning reads queue pressure from a once-per-slot snapshot
//     of every station rather than live values, because live reads of
//     another shard's stations would depend on scheduling. Balking still
//     reads the (always-local) target station live.
//   - Matching, demand, and charge-target jitter draw from per-region and
//     per-station streams.
//   - Matching breaks equal vacancy ages toward the lowest taxi ID.

import (
	"math"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/demand"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/station"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// wakeCal is a calendar queue: one bucket of taxi IDs per simulation minute.
// Wake times are bounded by the horizon and the clock only moves forward, so
// push and drain are O(1) — no heap discipline needed. The sweep sorts each
// minute's due list by taxi ID anyway, so bucket insertion order never
// reaches the simulation and the drain order is identical to the (min, id)
// min-heap this replaces.
type wakeCal struct {
	buckets [][]int32
	head    int // first undrained minute
}

// reset sizes the calendar for a horizon of endMin minutes. Bucket backing
// arrays are kept across episodes.
func (w *wakeCal) reset(endMin int) {
	if len(w.buckets) < endMin+1 {
		w.buckets = append(w.buckets, make([][]int32, endMin+1-len(w.buckets))...)
	}
	for i := range w.buckets {
		w.buckets[i] = w.buckets[i][:0]
	}
	w.head = 0
}

// push schedules id at minute min. Past minutes land in the head bucket and
// wakes beyond the horizon park in the final bucket, which is never drained
// (finalize flushes open work) — both exactly as the heap behaved.
func (w *wakeCal) push(min, id int) {
	if min < w.head {
		min = w.head
	}
	if min >= len(w.buckets) {
		min = len(w.buckets) - 1
	}
	w.buckets[min] = append(w.buckets[min], int32(id))
}

// drainTo appends every ID due at minute m or earlier to due.
func (w *wakeCal) drainTo(due []int, m int) []int {
	if m >= len(w.buckets) {
		m = len(w.buckets) - 1
	}
	for ; w.head <= m; w.head++ {
		for _, id := range w.buckets[w.head] {
			due = append(due, int(id))
		}
		w.buckets[w.head] = w.buckets[w.head][:0]
	}
	return due
}

// ownSet tracks a kernel's owned taxi IDs as a bitmap over the fleet.
// Ownership churns on every cross-cut migration, and at full scale the
// memmove behind a sorted slice's insert/delete was the kernel's single
// hottest instruction; bitmap updates are O(1) and iteration walks the words
// in ascending ID order by construction.
type ownSet []uint64

func newOwnSet(n int) ownSet { return make(ownSet, (n+63)/64) }

func (s ownSet) add(id int)    { s[id>>6] |= 1 << uint(id&63) }
func (s ownSet) remove(id int) { s[id>>6] &^= 1 << uint(id&63) }

// forEach calls f for every member in ascending order.
func (s ownSet) forEach(f func(id int)) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// kernel is the per-shard slice of the world: the taxis, regions, and
// stations one shard owns, plus its calendar and per-slot result buffers.
// All mutation of owned state happens here; the buffers are drained by
// Core.finishSlot under the slot barrier.
type kernel struct {
	c   *Core
	idx int

	regions    []int // owned region IDs, ascending (static)
	stationIDs []int // owned station IDs, ascending (static)

	owned       ownSet // owned taxi IDs
	cal         wakeCal
	charging    []int // taxis integrating charge, ascending
	pendingPlug []int // plugged this minute; first charge minute is m+1
	finishing   []int // reached their target this minute; unplug at m+1
	pending     map[int][]demand.Request
	outbox      []int // emigrants awaiting routeMigrants

	// scratch, reused across slots
	due          []int
	nextCharging []int
	cands        map[int][]int
	reqBuf       []demand.Request
	keyBuf       []uint64
	reqScratch   []demand.Request
	rateNow      float64 // tariff rate of the minute being swept

	// per-slot result buffers, drained serially in finishSlot
	events       []trace.Event
	trips        []TripStat
	charges      []trace.ChargingEvent
	served       int
	unserved     int
	generated    int
	invalid      int
	chargeStarts [24]int
}

// Core is the simulator and the one implementation of Environment. Step
// (engine.go) sequences the phase methods (beginSlotApply, generateAndMatch,
// runMinute, endSlot — parallel per kernel) around the serial barriers
// (routeMigrants, snapshotLoads, finishSlot).
type Core struct {
	city *synth.City
	opts Options

	slotLen int
	nowMin  int
	endMin  int

	taxis    []taxi
	stations []*station.State
	// stationInfo aliases the network's static station slice so hot paths
	// index it in place instead of copying a Station per lookup.
	stationInfo []station.Station

	nearStations [][]geo.Neighbor

	regionOwner []int // region ID -> kernel index (static)
	taxiOwner   []int // taxi ID -> kernel index (updated at barriers)
	kernels     []*kernel

	demandSrc  []*rng.Source // per region
	matchSrc   []*rng.Source // per region
	stationSrc []*rng.Source // per station

	// loads is the once-per-slot queue-pressure snapshot every replanning
	// decision reads, local or not, so K=1 and K=N see the same numbers.
	loads     []float64
	closedNow []bool

	hooks      Hooks
	xh         ExtendedHooks
	rec        Recorder
	tel        simTel
	predictor  *forecast.Predictor
	staleFeats [][]float64

	res            Results
	generated      int
	invalidActions int
	finalized      bool

	// per-slot read caches (state mutates only inside Step, so anything
	// keyed on the slot index stays valid between steps)
	supplySlot int
	supply     []int
	aggSlot    int
	aggValid   bool
	aggVacant  int
	aggQueued  int
	peSlot     int
	peValid    bool
	peMean     float64
	peVar      float64

	// merge scratch
	mergeTrips   []TripStat
	mergeCharges []trace.ChargingEvent
	mergeEvents  []trace.Event
	keyBuf       []uint64

	// Reusable hot-path scratch: per-taxi observation buffers (borrowed by
	// Observation.Features, see Observe for the ownership contract), the
	// VacantTaxis result buffer, and routeMigrants' gather slice.
	obsBufs    [][]float64
	vacantBuf  []int
	migrantBuf []int

	// Arena blocks behind tripChunks/chargeChunks. Each slot's chunk is cut
	// from the current block; exhausted blocks stay alive through the chunks
	// that reference them while the arena moves on to a geometrically larger
	// block, so chunk storage costs amortized O(1) allocations per slot.
	tripArena   []TripStat
	chargeArena []trace.ChargingEvent

	// Per-slot stat chunks. Appending every slot's trips onto one long
	// slice costs an amortized-doubling memmove of the whole history; at
	// full scale that realloc traffic dominates finishSlot. Chunks bound
	// the copying to exactly twice per record: once into its chunk here,
	// once into the flat snapshot Results builds on demand.
	tripChunks   [][]TripStat
	chargeChunks [][]trace.ChargingEvent
	tripCount    int
	chargeCount  int

	// Phase closures, allocated once in New: Step hands each phase to each
	// as a func value, and a closure literal built inside Step escapes — one
	// allocation per phase per call. The closures read their per-call
	// parameters (actions, the minute cursor) from stepActions and
	// stepMinute, which Step writes between barriers; under multi-shard
	// fan-out the writes happen-before the goroutine launches that read them.
	beginFn, genFn, minuteFn, endFn func(k int)
	stepActions                     map[int]Action
	stepMinute                      int

	ptel phaseTel
}

// buildKernels creates one kernel per shard of regionOwner and hands each
// its regions and the stations inside them, in ascending ID order.
func (c *Core) buildKernels() {
	n := c.city.Partition.Len()
	c.nearStations = make([][]geo.Neighbor, n)
	for r := 0; r < n; r++ {
		c.nearStations[r] = c.city.Stations.Nearest(c.city.Partition.Region(r).Centroid, KStations)
	}
	k := slices.Max(c.regionOwner) + 1
	c.kernels = make([]*kernel, k)
	for i := range c.kernels {
		c.kernels[i] = &kernel{c: c, idx: i, cands: make(map[int][]int)}
	}
	for r := 0; r < n; r++ {
		kn := c.kernels[c.regionOwner[r]]
		kn.regions = append(kn.regions, r)
	}
	for sid := 0; sid < c.city.Stations.Len(); sid++ {
		kn := c.kernels[c.regionOwner[c.city.Stations.Station(sid).Region]]
		kn.stationIDs = append(kn.stationIDs, sid)
	}
}

// Shards returns the number of kernels.
func (c *Core) Shards() int { return len(c.kernels) }

// Reset restores the initial fleet and clears all accounting. The per-region
// and per-station RNG streams are reseeded from seed alone, so the same seed
// reproduces the same realization at any shard count.
func (c *Core) Reset(seed int64) {
	c.nowMin = 0
	c.endMin = (c.opts.WarmupDays + c.opts.Days) * 24 * 60
	n := c.city.Partition.Len()
	c.demandSrc = make([]*rng.Source, n)
	c.matchSrc = make([]*rng.Source, n)
	for r := 0; r < n; r++ {
		c.demandSrc[r] = rng.SplitStable(seed, "shard-demand-"+strconv.Itoa(r))
		c.matchSrc[r] = rng.SplitStable(seed, "shard-match-"+strconv.Itoa(r))
	}
	nS := c.city.Stations.Len()
	c.stationSrc = make([]*rng.Source, nS)
	for s := 0; s < nS; s++ {
		c.stationSrc[s] = rng.SplitStable(seed, "shard-station-"+strconv.Itoa(s))
	}
	c.taxis = make([]taxi, len(c.city.Fleet))
	for i, v := range c.city.Fleet {
		c.taxis[i] = taxi{
			id:             v.ID,
			state:          Cruising,
			region:         v.HomeRegion,
			batt:           c.city.NewBattery(v),
			vacantSinceMin: 0,
			crawlFromMin:   0,
			lastStation:    -1,
		}
	}
	c.stations = make([]*station.State, nS)
	for i := 0; i < nS; i++ {
		c.stations[i] = station.NewState(c.city.Stations.Station(i))
	}
	c.stationInfo = c.city.Stations.Stations()
	c.loads = make([]float64, nS)
	c.closedNow = make([]bool, nS)
	c.staleFeats = nil
	c.applyBatteryFactors()
	if c.opts.LearnedForecast {
		p, err := forecast.New(n, c.city.SlotsPerDay())
		if err != nil {
			panic("sim: " + err.Error())
		}
		c.predictor = p
	} else {
		c.predictor = nil
	}
	c.res = Results{
		SlotMinutes:  c.slotLen,
		Accounts:     make([]TaxiAccount, len(c.taxis)),
		RegionDemand: make([]int, n),
		RegionServed: make([]int, n),
	}
	c.resetChunks()
	if len(c.obsBufs) != len(c.taxis) {
		c.obsBufs = make([][]float64, len(c.taxis))
	}
	c.generated = 0
	c.invalidActions = 0
	c.finalized = false

	c.taxiOwner = make([]int, len(c.taxis))
	for _, kn := range c.kernels {
		kn.owned = newOwnSet(len(c.taxis))
		kn.cal.reset(c.endMin)
		kn.charging = kn.charging[:0]
		kn.pendingPlug = kn.pendingPlug[:0]
		kn.finishing = kn.finishing[:0]
		// Keep the pending map and its per-region buckets across episodes:
		// the buckets are the match loop's working storage, and dropping
		// them re-pays their growth allocations every Reset.
		if kn.pending == nil {
			kn.pending = make(map[int][]demand.Request)
		}
		for r, s := range kn.pending {
			kn.pending[r] = s[:0]
		}
		kn.outbox = kn.outbox[:0]
		kn.events = kn.events[:0]
		kn.trips = kn.trips[:0]
		kn.charges = kn.charges[:0]
		kn.served, kn.unserved, kn.generated, kn.invalid = 0, 0, 0, 0
		kn.chargeStarts = [24]int{}
	}
	for i := range c.taxis {
		k := c.regionOwner[c.taxis[i].region]
		c.taxiOwner[i] = k
		c.kernels[k].owned.add(i)
	}
	c.invalidateCaches()
}

func (c *Core) invalidateCaches() {
	c.supplySlot = -1
	c.aggValid = false
	c.peValid = false
}

// applyBatteryFactors scales each taxi's pack by its cohort factor and,
// under ExtendedHooks, its consumption rate by the cohort's vehicle model.
func (c *Core) applyBatteryFactors() {
	if c.hooks == nil {
		return
	}
	for i := range c.taxis {
		b := c.city.NewBattery(c.city.Fleet[i])
		if f := c.hooks.BatteryFactor(i); f > 0 && f != 1 {
			b.CapacityKWh *= f
		}
		if c.xh != nil {
			if f := c.xh.ConsumptionFactor(i); f > 0 && f != 1 {
				b.ConsumptionPerKm *= f
			}
		}
		c.taxis[i].batt = b
	}
}

// speedScale returns the ExtendedHooks travel-speed multiplier for a
// region at a minute, or exactly 1 when no extended hooks are installed.
func (c *Core) speedScale(region, minute int) float64 {
	if c.xh == nil {
		return 1
	}
	if f := c.xh.SpeedScale(region, minute); f > 0 {
		return f
	}
	return 1
}

// tariffScale returns the ExtendedHooks charging-price multiplier at a
// minute, or exactly 1 when no extended hooks are installed.
func (c *Core) tariffScale(minute int) float64 {
	if c.xh == nil {
		return 1
	}
	if f := c.xh.TariffScale(minute); f > 0 {
		return f
	}
	return 1
}

// offDuty reports whether the taxi sits out this minute on a shift change.
func (c *Core) offDuty(taxi, minute int) bool {
	return c.xh != nil && c.xh.OffDuty(taxi, minute)
}

// travelMinutes converts a road distance to whole driving minutes at the
// traffic speed of minute m in the given region, with a one-minute floor.
// The region matters only under a weather perturbation.
func (c *Core) travelMinutes(distKm float64, region, m int) int {
	if s := c.speedScale(region, m); s != 1 {
		return travelMinutesScaled(distKm, m, s)
	}
	return travelMinutesAt(distKm, m)
}

// stationClosedHook reports whether station rejects new arrivals at minute m.
func (c *Core) stationClosedHook(station, m int) bool {
	return c.hooks != nil && c.hooks.StationClosed(station, m)
}

// --- Environment read surface ------------------------------------------------

// City returns the underlying synthetic city.
func (c *Core) City() *synth.City { return c.city }

// Now returns the current absolute simulation minute.
func (c *Core) Now() int { return c.nowMin }

// Slot returns the current absolute slot index.
func (c *Core) Slot() int { return c.nowMin / c.slotLen }

// SlotLen returns the slot length in minutes.
func (c *Core) SlotLen() int { return c.slotLen }

// HorizonMin returns the simulation horizon in absolute minutes.
func (c *Core) HorizonMin() int { return c.endMin }

// Done reports whether the horizon has been reached.
func (c *Core) Done() bool { return c.nowMin >= c.endMin }

// InvalidActions returns how many submitted actions were mask-coerced.
func (c *Core) InvalidActions() int { return c.invalidActions }

// VacantTaxis returns the IDs of taxis awaiting a displacement decision
// this slot, ascending. The slice borrows a core-owned buffer that the next
// VacantTaxis call rewrites — within one slot every call produces identical
// contents, so holding it across a single Step is safe, but callers keeping
// IDs longer must copy.
func (c *Core) VacantTaxis() []int {
	out := c.vacantBuf[:0]
	for i := range c.taxis {
		if c.taxis[i].state == Cruising {
			out = append(out, i)
		}
	}
	c.vacantBuf = out
	return out
}

// TaxiRegion returns the current region of a taxi.
func (c *Core) TaxiRegion(id int) int { return c.taxis[id].region }

// TaxiSoC returns the current state of charge of a taxi.
func (c *Core) TaxiSoC(id int) float64 { return c.taxis[id].batt.SoC }

// TaxiState returns the state of a taxi.
func (c *Core) TaxiState(id int) TaxiState { return c.taxis[id].state }

// NearStations returns the cached KStations nearest stations for a region.
func (c *Core) NearStations(region int) []geo.Neighbor { return c.nearStations[region] }

// StationState returns the runtime state of a station (read-only use).
func (c *Core) StationState(id int) *station.State { return c.stations[id] }

// SlotProfit returns the net CNY earned by taxi id during the last Step.
func (c *Core) SlotProfit(id int) float64 { return c.taxis[id].slotProfit }

// PESoFar returns taxi id's cumulative profit efficiency (CNY/h), floored at
// one on-duty hour (see peFloorMin).
func (c *Core) PESoFar(id int) float64 {
	a := &c.taxis[id].acct
	d := a.OnDutyMin()
	if d < peFloorMin {
		d = peFloorMin
	}
	return a.ProfitCNY() / (d / 60)
}

// FleetPEStats returns the mean and variance of the cumulative PE across
// on-duty taxis, cached per slot (accounts change only inside Step).
func (c *Core) FleetPEStats() (mean, variance float64) {
	slot := c.Slot()
	if c.peValid && c.peSlot == slot {
		return c.peMean, c.peVar
	}
	var n int
	for i := range c.taxis {
		if c.taxis[i].acct.OnDutyMin() > 0 {
			mean += c.PESoFar(i)
			n++
		}
	}
	if n == 0 {
		c.peMean, c.peVar, c.peSlot, c.peValid = 0, 0, slot, true
		return 0, 0
	}
	mean /= float64(n)
	for i := range c.taxis {
		if c.taxis[i].acct.OnDutyMin() > 0 {
			d := c.PESoFar(i) - mean
			variance += d * d
		}
	}
	variance /= float64(n)
	c.peMean, c.peVar, c.peSlot, c.peValid = mean, variance, slot, true
	return mean, variance
}

// fleetStateCounts returns the global vacant and queued/to-station counts,
// cached per slot.
func (c *Core) fleetStateCounts() (vacant, queued int) {
	slot := c.Slot()
	if c.aggValid && c.aggSlot == slot {
		return c.aggVacant, c.aggQueued
	}
	for i := range c.taxis {
		switch c.taxis[i].state {
		case Cruising:
			vacant++
		case Queued, ToStation:
			queued++
		}
	}
	c.aggVacant, c.aggQueued, c.aggSlot, c.aggValid = vacant, queued, slot, true
	return vacant, queued
}

// regionSupply returns per-region vacant-taxi counts, cached per slot.
func (c *Core) regionSupply() []int {
	slot := c.Slot()
	if c.supplySlot == slot && c.supply != nil {
		return c.supply
	}
	sup := make([]int, c.city.Partition.Len())
	for i := range c.taxis {
		if c.taxis[i].state == Cruising {
			sup[c.taxis[i].region]++
		}
	}
	c.supply = sup
	c.supplySlot = slot
	return sup
}

// ValidMask returns the action-validity mask for a taxi.
func (c *Core) ValidMask(id int) [NumActions]bool {
	var mask [NumActions]bool
	t := &c.taxis[id]
	mustCharge := t.batt.SoC < c.opts.LowSoC
	mayCharge := t.batt.SoC < c.opts.AllowChargeSoC
	if !mustCharge {
		mask[0] = true
		nbs := c.city.Partition.Region(t.region).Neighbors
		for i := 0; i < len(nbs) && i < MaxNeighbors; i++ {
			mask[1+i] = true
		}
	}
	if mustCharge || mayCharge {
		for k := 0; k < len(c.nearStations[t.region]) && k < KStations; k++ {
			mask[1+MaxNeighbors+k] = true
		}
	}
	return mask
}

// Observe builds the observation for a vacant taxi. It is deterministic
// given the environment state; the fleet-wide aggregates come from per-slot
// caches, so a call costs O(1) amortized.
//
// Features borrows a per-taxi buffer owned by the environment: it stays
// valid until the same taxi is observed again. Within one slot repeated
// observations rewrite identical bytes, so holding the slice across calls
// in the same slot is safe; callers keeping features across Step (replay
// buffers, demonstration logs) must copy them out.
func (c *Core) Observe(id int) Observation {
	t := &c.taxis[id]
	f := c.obsBufs[id][:0]
	now := c.nowMin
	dayFrac := float64(now%(24*60)) / (24 * 60)

	f = append(f, math.Sin(2*math.Pi*dayFrac), math.Cos(2*math.Pi*dayFrac))

	meanPE, _ := c.FleetPEStats()
	peGap := (c.PESoFar(id) - meanPE) / 50
	vacancyAge := float64(now-t.vacantSinceMin) / 60
	f = append(f, t.batt.SoC, clampF(peGap, -2, 2), clampF(vacancyAge, 0, 4))

	supply := c.regionSupply()
	f = c.appendRegionTriple(f, t.region, supply, now)

	nbs := c.city.Partition.Region(t.region).Neighbors
	for i := 0; i < MaxNeighbors; i++ {
		if i < len(nbs) {
			f = c.appendRegionTriple(f, nbs[i], supply, now)
		} else {
			f = append(f, 0, 0, 0)
		}
	}

	ns := c.nearStations[t.region]
	for k := 0; k < KStations; k++ {
		if k < len(ns) {
			st := c.stations[ns[k].Label]
			f = append(f,
				float64(st.Free())/20,
				float64(st.QueueLen())/10,
				ns[k].DistKm/10,
				c.city.Tariff.Rate(c.city.Tariff.BandAt(now))/2,
			)
		} else {
			f = append(f, 0, 0, 0, 0)
		}
	}

	vacant, queued := c.fleetStateCounts()
	n := float64(len(c.taxis))
	band := float64(c.city.Tariff.BandAt(now)) / 2
	f = append(f, float64(vacant)/n, float64(queued)/n, band)

	if len(f) != FeatureSize {
		panic("sim: feature size mismatch")
	}

	if c.hooks != nil {
		if c.staleFeats == nil {
			c.staleFeats = make([][]float64, len(c.taxis))
		}
		if c.hooks.ObsStale(t.region, now) {
			c.tel.staleObs.Inc()
			if cached := c.staleFeats[id]; cached != nil {
				f = append(f[:0], cached...)
			}
		} else {
			c.staleFeats[id] = append(c.staleFeats[id][:0], f...)
		}
	}
	c.obsBufs[id] = f
	return Observation{Features: f, Mask: c.ValidMask(id)}
}

// appendRegionTriple appends the (supply, forecast, fare) features of a
// region to f.
func (c *Core) appendRegionTriple(f []float64, region int, supply []int, now int) []float64 {
	var fc float64
	switch {
	case c.opts.NoForecastFeature:
		fc = 0
	case c.predictor != nil:
		fc = c.predictor.Predict(region, now/c.slotLen)
	default:
		fc = c.city.Demand.ExpectedSlotDemand(region, now, c.slotLen)
	}
	fare := c.city.Demand.ExpectedFare(region, hourAt(now))
	return append(f,
		float64(supply[region])/10,
		fc/10,
		fare/100,
	)
}

// SetHooks installs (or, with nil, removes) a perturbation engine. Call it
// before Reset: battery-degradation factors take effect when the fleet is
// rebuilt, and policy.Evaluate resets the environment before every run.
// Hooks persist across Reset so one engine conditions every episode.
func (c *Core) SetHooks(h Hooks) {
	c.hooks = h
	c.xh, _ = h.(ExtendedHooks)
	if c.nowMin == 0 {
		// Fresh environment: re-derive the fleet so battery cohorts apply
		// even if the caller steps without another Reset.
		c.applyBatteryFactors()
	}
}

// Hooks returns the installed perturbation engine, or nil.
func (c *Core) Hooks() Hooks { return c.hooks }

// SetRecorder installs (or, with nil, removes) the event recorder. It
// persists across Reset. Events are buffered per kernel during a slot and
// emitted at the slot barrier in canonical (minute, taxi, kind) order, so
// the stream is identical at any shard count.
func (c *Core) SetRecorder(r Recorder) { c.rec = r }

// SetTelemetry installs (or, with nil, removes) a metrics registry: the
// deterministic simulation counters plus the wall-clock phase timers. All
// counters and histograms are atomic, so kernels write them concurrently;
// every count is a pure function of the trajectory and therefore identical
// at any shard count. Like hooks and the recorder it persists across Reset.
// Telemetry is write-only: nothing in the simulator reads a metric back, so
// enabling it cannot perturb the trajectory.
func (c *Core) SetTelemetry(r *telemetry.Registry) {
	c.tel = newSimTel(r)
	c.ptel = newPhaseTel(r)
}

// Results returns the accounting of the run as a stable snapshot.
func (c *Core) Results() *Results {
	snap := c.res
	if !c.finalized {
		snap.Accounts = make([]TaxiAccount, len(c.taxis))
		for i := range c.taxis {
			snap.Accounts[i] = c.taxis[i].acct
		}
	} else {
		snap.Accounts = append([]TaxiAccount(nil), c.res.Accounts...)
	}
	snap.TripStats = make([]TripStat, 0, c.tripCount)
	for _, ch := range c.tripChunks {
		snap.TripStats = append(snap.TripStats, ch...)
	}
	snap.ChargeStats = make([]trace.ChargingEvent, 0, c.chargeCount)
	for _, ch := range c.chargeChunks {
		snap.ChargeStats = append(snap.ChargeStats, ch...)
	}
	snap.RegionDemand = append([]int(nil), c.res.RegionDemand...)
	snap.RegionServed = append([]int(nil), c.res.RegionServed...)
	return &snap
}

// --- Phase methods (parallel per kernel between barriers) --------------------

// beginSlotApply clears kernel k's per-slot profit accumulators and applies
// one displacement action per owned vacant taxi (missing entries default to
// Stay). Safe to run concurrently across kernels: it touches only owned
// taxis and the kernel's own buffers.
func (c *Core) beginSlotApply(k int, actions map[int]Action) {
	kn := c.kernels[k]
	kn.owned.forEach(func(id int) {
		// One fused scan: applyAction touches only the acting taxi, so
		// clearing each taxi's accumulator just before its own action is
		// equivalent to a separate clear pass.
		c.taxis[id].slotProfit = 0
		if c.taxis[id].state != Cruising {
			return
		}
		a, ok := actions[id]
		if !ok {
			a = Action{Kind: Stay}
		}
		// Off-duty taxis hold position — unless forced charging applies (a
		// shift change never strands a taxi), in which case the action
		// proceeds and the mask coercion steers it to a charger.
		if c.offDuty(id, c.nowMin) && c.taxis[id].batt.SoC >= c.opts.LowSoC {
			a = Action{Kind: Stay}
			c.tel.offDutyHolds.Inc()
		}
		kn.applyAction(id, a)
	})
}

// generateAndMatch samples kernel k's per-region demand for the slot,
// expires stale requests, and matches the rest oldest-first within each
// region. Regions are processed in ascending ID order; each draws from its
// own demand and match streams, so the outcome is independent of K.
func (c *Core) generateAndMatch(k int) {
	kn := c.kernels[k]
	slotStart := c.nowMin
	slot := slotStart / c.slotLen

	for r, s := range kn.cands {
		kn.cands[r] = s[:0]
	}
	kn.owned.forEach(func(id int) {
		if s := c.taxis[id].state; s == Cruising || s == Relocating {
			if c.offDuty(id, slotStart) {
				return // shift change: invisible to passengers this slot
			}
			r := c.taxis[id].region
			kn.cands[r] = append(kn.cands[r], id)
		}
	})

	for _, r := range kn.regions {
		factor := 1.0
		if c.hooks != nil {
			factor = c.hooks.DemandScale(r, slotStart)
		}
		// The sampler draws destinations from a gravity alias table and
		// places points by triangle fan — O(1) per request on the region's
		// own stream.
		kn.reqBuf = c.city.Demand.SampleRegionScaledFast(kn.reqBuf[:0], c.demandSrc[r], r, slotStart, c.slotLen, factor)
		reqs := kn.reqBuf
		// Region r is owned by exactly this kernel, so the per-region demand
		// tally is a race-free direct write.
		c.res.RegionDemand[r] += len(reqs)
		if c.hooks != nil {
			for i := range reqs {
				if f := c.hooks.FareScale(reqs[i].OriginRegion, reqs[i].TimeMin); f != 1 && f >= 0 {
					reqs[i].Fare *= f
				}
			}
		}
		if c.predictor != nil {
			// Observe every owned region every slot, zeros included: the
			// predictor's EWMA semantics require the full sequence.
			c.predictor.Observe(r, slot, float64(len(reqs)))
		}
		kn.generated += len(reqs)

		pend := append(kn.pending[r], reqs...)
		// Expire and order in one pass over packed (TimeMin, arrival index)
		// keys — the sort moves 8-byte keys instead of 130-byte requests,
		// and the index tiebreak keeps equal times in arrival order. The
		// survivors are gathered into scratch so the pending buffer's own
		// storage is free to take back the unmatched remainder.
		kn.keyBuf = kn.keyBuf[:0]
		for i := range pend {
			if pend[i].TimeMin+c.opts.PatienceMin < slotStart {
				kn.unserved++
				c.tel.abandonments.Inc()
				continue
			}
			kn.keyBuf = append(kn.keyBuf, uint64(pend[i].TimeMin)<<24|uint64(i))
		}
		slices.Sort(kn.keyBuf)
		kn.reqScratch = kn.reqScratch[:0]
		for _, key := range kn.keyBuf {
			kn.reqScratch = append(kn.reqScratch, pend[key&(1<<24-1)])
		}
		kn.pending[r] = kn.matchRegion(r, kn.reqScratch, pend[:0])
	}
}

// snapshotLoads records every station's queue pressure for the slot's
// replanning decisions. Serial: runs under the post-match barrier.
func (c *Core) snapshotLoads() {
	for i, st := range c.stations {
		c.loads[i] = float64(st.QueueLen() - st.Free())
	}
}

// runMinute advances kernel k's owned world by one minute: station
// perturbations first (so same-minute arrivals see updated state), then the
// merged calendar/charging sweep in ascending taxi ID, then activation of
// this minute's plug-ins.
func (c *Core) runMinute(k, m int) {
	kn := c.kernels[k]
	kn.beginMinute(m)
	kn.sweep(m)
	kn.activatePlugs()
}

// endSlot drains crawl energy for kernel k's cruising taxis and queues any
// whose region now belongs to another kernel (post-dropoff migrants) for
// routing at the slot barrier.
func (c *Core) endSlot(k int) {
	kn := c.kernels[k]
	slotEnd := c.nowMin + c.slotLen
	kn.owned.forEach(func(id int) {
		t := &c.taxis[id]
		if t.state == Cruising {
			accrueCrawl(t, slotEnd, c.opts.CruiseSpeedKmh)
		}
		if c.regionOwner[t.region] != kn.idx {
			kn.outbox = append(kn.outbox, id)
		}
	})
}

// routeMigrants moves every outboxed taxi to the kernel owning its current
// region, in ascending taxi ID order. Serial: runs only under barriers.
func (c *Core) routeMigrants() {
	all := c.migrantBuf[:0]
	for _, kn := range c.kernels {
		all = append(all, kn.outbox...)
		kn.outbox = kn.outbox[:0]
	}
	c.migrantBuf = all
	if len(all) == 0 {
		return
	}
	slices.Sort(all)
	for _, id := range all {
		c.kernels[c.taxiOwner[id]].removeOwned(id)
	}
	for _, id := range all {
		dst := c.kernels[c.regionOwner[c.taxis[id].region]]
		dst.adopt(id)
		c.taxiOwner[id] = dst.idx
	}
}

// finishSlot merges every kernel's slot buffers in canonical order, emits
// buffered events, advances the clock, and finalizes at the horizon.
// Serial: runs under the end-of-slot barrier.
func (c *Core) finishSlot() {
	slotEnd := c.nowMin + c.slotLen
	c.mergeTrips = c.mergeTrips[:0]
	c.mergeCharges = c.mergeCharges[:0]
	c.mergeEvents = c.mergeEvents[:0]
	for _, kn := range c.kernels {
		c.res.ServedRequests += kn.served
		c.res.UnservedRequests += kn.unserved
		c.generated += kn.generated
		c.invalidActions += kn.invalid
		kn.served, kn.unserved, kn.generated, kn.invalid = 0, 0, 0, 0
		for h, n := range kn.chargeStarts {
			c.res.ChargeStartsByHour[h] += n
		}
		kn.chargeStarts = [24]int{}
		c.mergeTrips = append(c.mergeTrips, kn.trips...)
		kn.trips = kn.trips[:0]
		c.mergeCharges = append(c.mergeCharges, kn.charges...)
		kn.charges = kn.charges[:0]
		c.mergeEvents = append(c.mergeEvents, kn.events...)
		kn.events = kn.events[:0]
	}
	// Canonical orders: (PickupMin, Taxi) and (FinishMin, VehicleID) are
	// unique keys (a taxi starts at most one trip, and finishes at most one
	// session, per minute), so the merged order is a total order independent
	// of kernel count. Sorting the records directly moves ~100-byte structs
	// on every comparison or swap (reflection swappers and generic
	// comparators both showed up as the merge's dominant cost at full
	// scale); instead sort packed (key, index) words and gather once into
	// the slot's chunk. Packing bounds: minutes < 2^20 (~694 days), IDs <
	// 2^24, records per slot < 2^20 — all far above any configured scale.
	if len(c.mergeTrips) > 0 {
		c.keyBuf = c.keyBuf[:0]
		for i := range c.mergeTrips {
			t := &c.mergeTrips[i]
			c.keyBuf = append(c.keyBuf, uint64(t.PickupMin)<<44|uint64(t.Taxi)<<20|uint64(i))
		}
		slices.Sort(c.keyBuf)
		var chunk []TripStat
		c.tripArena, chunk = cutChunk(c.tripArena, len(c.keyBuf))
		for j, key := range c.keyBuf {
			chunk[j] = c.mergeTrips[key&(1<<20-1)]
		}
		c.tripChunks = append(c.tripChunks, chunk)
		c.tripCount += len(chunk)
	}
	if len(c.mergeCharges) > 0 {
		c.keyBuf = c.keyBuf[:0]
		for i := range c.mergeCharges {
			ev := &c.mergeCharges[i]
			c.keyBuf = append(c.keyBuf, uint64(ev.FinishMin)<<44|uint64(ev.VehicleID)<<20|uint64(i))
		}
		slices.Sort(c.keyBuf)
		var chunk []trace.ChargingEvent
		c.chargeArena, chunk = cutChunk(c.chargeArena, len(c.keyBuf))
		for j, key := range c.keyBuf {
			chunk[j] = c.mergeCharges[key&(1<<20-1)]
		}
		c.chargeChunks = append(c.chargeChunks, chunk)
		c.chargeCount += len(chunk)
	}
	if c.rec != nil {
		evs := c.mergeEvents
		slices.SortStableFunc(evs, func(a, b trace.Event) int {
			if a.TimeMin != b.TimeMin {
				return a.TimeMin - b.TimeMin
			}
			if a.Taxi != b.Taxi {
				return a.Taxi - b.Taxi
			}
			if a.Kind != b.Kind {
				return int(a.Kind) - int(b.Kind)
			}
			if a.Region != b.Region {
				return a.Region - b.Region
			}
			if a.A != b.A {
				return a.A - b.A
			}
			if a.B != b.B {
				return a.B - b.B
			}
			switch {
			case a.V < b.V:
				return -1
			case a.V > b.V:
				return 1
			}
			return 0
		})
		for _, ev := range evs {
			c.rec(ev)
		}
	}

	c.nowMin = slotEnd
	c.tel.slots.Inc()
	warmupEnd := c.opts.WarmupDays * 24 * 60
	if slotEnd > warmupEnd {
		c.res.Slots++
	}
	if slotEnd == warmupEnd {
		c.clearAccounting()
	}
	c.invalidateCaches()
	if c.Done() {
		c.finalize()
	}
}

// clearAccounting wipes all ledgers at the warmup boundary while keeping the
// physical fleet state.
func (c *Core) clearAccounting() {
	now := c.nowMin
	for i := range c.taxis {
		t := &c.taxis[i]
		t.acct = TaxiAccount{}
		t.slotProfit = 0
		if t.vacantSinceMin < now {
			t.vacantSinceMin = now
		}
		if t.crawlFromMin < now {
			t.crawlFromMin = now
		}
		if t.pickupMin < now {
			t.pickupMin = now
		}
		if t.departMin < now {
			t.departMin = now
		}
		if t.plugMin < now {
			t.plugMin = now
		}
		t.chargeEnergy = 0
		t.chargeCost = 0
		t.chargeSoC0 = t.batt.SoC
	}
	c.res = Results{
		SlotMinutes:  c.slotLen,
		Accounts:     make([]TaxiAccount, len(c.taxis)),
		RegionDemand: make([]int, c.city.Partition.Len()),
		RegionServed: make([]int, c.city.Partition.Len()),
	}
	c.resetChunks()
}

// resetChunks empties the stat chunk lists, keeping their backing arrays for
// the next appends, and reuses the current arena blocks from the top. The
// headers past len are zeroed first: left in place they would pin every
// arena block the discarded chunks were cut from (a whole warm-up day at
// full scale) until later appends overwrote them.
func (c *Core) resetChunks() {
	clear(c.tripChunks[:cap(c.tripChunks)])
	clear(c.chargeChunks[:cap(c.chargeChunks)])
	c.tripChunks = c.tripChunks[:0]
	c.chargeChunks = c.chargeChunks[:0]
	c.tripCount, c.chargeCount = 0, 0
	c.tripArena = c.tripArena[:0]
	c.chargeArena = c.chargeArena[:0]
}

// cutChunk cuts an n-record chunk off the end of the arena, starting a fresh
// block of at least double the previous capacity when the current one cannot
// fit n more. A superseded block stays reachable only through the chunks
// already cut from it — nothing is copied — so chunk storage costs amortized
// O(1) allocations per slot. The chunk's capacity is clipped to its length,
// keeping later arena growth unreachable through it.
func cutChunk[T any](arena []T, n int) (newArena, chunk []T) {
	if cap(arena)-len(arena) < n {
		size := 2 * cap(arena)
		if size < n {
			size = n
		}
		if size < 64 {
			size = 64
		}
		arena = make([]T, 0, size)
	}
	at := len(arena)
	newArena = arena[: at+n : cap(arena)]
	return newArena, newArena[at : at+n : at+n]
}

// finalize flushes open cruise segments, counts never-served requests, and
// copies accounts into Results.
func (c *Core) finalize() {
	if c.finalized {
		return
	}
	c.finalized = true
	for _, kn := range c.kernels {
		for _, r := range kn.regions {
			c.res.UnservedRequests += len(kn.pending[r])
			// Truncate, don't nil: the bucket is the match loop's working
			// storage and the next episode re-pays its growth otherwise.
			kn.pending[r] = kn.pending[r][:0]
		}
	}
	for i := range c.taxis {
		t := &c.taxis[i]
		if t.state == Cruising {
			flushCruise(t, c.endMin)
			accrueCrawl(t, c.endMin, c.opts.CruiseSpeedKmh)
		}
		c.res.Accounts[i] = t.acct
	}
}
