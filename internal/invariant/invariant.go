// Package invariant is a reusable invariant-checking engine for simulator
// runs. A Checker wraps any sim.Environment and verifies, during and after
// a run, the physical laws the simulator must never break no matter which
// scenario is attached:
//
//   - no taxi's state of charge leaves [0, 1], and no taxi strands
//   - every taxi is always inside the region partition
//   - energy is conserved per taxi: SoC = initial + charged − consumed
//   - requests are conserved: generated = served + expired + pending
//   - station queues are FIFO, never over capacity, and never accept a
//     plug or a join while the station is closed
//   - the engine's own structural invariants (ownership partition,
//     occupancy state) hold after every step
//
// The station checks replay the structured event log through a shadow
// model. Station events must arrive in the simulator's canonical (minute,
// taxi, kind) order; a stream that steps back in time is itself a
// violation.
// The checker is read-only: attaching it never perturbs a run, so a
// checked run digests byte-identically to an unchecked one.
package invariant

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Options selects which invariant families a Checker enforces. The zero
// value enables everything that is valid on an arbitrary run; the ledger
// checks (energy, requests) additionally require Options.WarmupDays == 0
// on the environment, because warmup resets the accounting mid-run.
type Options struct {
	// Energy enables the per-step energy-conservation check. Requires an
	// environment with a TaxiEnergyLedger surface and WarmupDays == 0.
	Energy bool
	// Requests enables the request-conservation check. Requires an
	// environment with a GeneratedRequests surface and WarmupDays == 0.
	Requests bool
	// Stranding treats any stranded minute as a violation. Leave false for
	// scenarios severe enough that stranding is the expected outcome.
	Stranding bool
	// SoCEps is the tolerance on the [0, 1] SoC bounds (default 1e-9).
	SoCEps float64
	// MaxViolations caps how many violations are collected before the
	// checker stops recording new ones (default 64). The cap keeps a
	// fundamentally broken run from allocating without bound.
	MaxViolations int
}

// Violation is one detected invariant breach.
type Violation struct {
	// Name is the stable identifier of the broken invariant, e.g.
	// "soc-range" or "queue-fifo".
	Name string
	// Minute is the simulation minute of the breach, -1 when not tied to
	// a specific minute.
	Minute int
	// Detail is a human-readable description with the offending values.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Minute < 0 {
		return fmt.Sprintf("%s: %s", v.Name, v.Detail)
	}
	return fmt.Sprintf("%s @%d: %s", v.Name, v.Minute, v.Detail)
}

// The optional verification surfaces the simulator exposes
// (kernel_debug.go). The checker probes for them with type assertions so it
// can still wrap a minimal Environment, silently skipping what is absent.
type structuralChecker interface{ CheckInvariants() error }

type requestLedger interface {
	GeneratedRequests() int
	PendingRequests() int
}

type energyLedger interface{ TaxiEnergyLedger(id int) sim.EnergyLedger }

// Checker verifies one run of one environment. Use it once: New, Begin
// after Reset, Observe every trace event, AfterStep after every Step, and
// Finish at the horizon.
type Checker struct {
	env  sim.Environment
	opts Options

	fleet   int
	regions int

	initialKWh []float64 // per-taxi SoC in kWh, captured at Begin

	events []trace.Event
	vs     []Violation
}

// New wraps env in a fresh checker. Call Begin after env.Reset and before
// the first Step.
func New(env sim.Environment, opts Options) *Checker {
	if opts.SoCEps <= 0 {
		opts.SoCEps = 1e-9
	}
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 64
	}
	city := env.City()
	return &Checker{
		env:     env,
		opts:    opts,
		fleet:   len(city.Fleet),
		regions: city.Partition.Len(),
	}
}

// Recorder chains the checker into an event-recorder pipeline: the
// returned recorder feeds every event to the checker and then to next
// (which may be nil). Install it with env.SetRecorder.
func (c *Checker) Recorder(next sim.Recorder) sim.Recorder {
	return func(ev trace.Event) {
		c.Observe(ev)
		if next != nil {
			next(ev)
		}
	}
}

// Observe buffers one station event (queue, plug, unplug, balk, outage,
// derate, replan) for the Finish-time shadow replay; other kinds are
// ignored.
func (c *Checker) Observe(ev trace.Event) {
	switch ev.Kind {
	case trace.EvQueue, trace.EvPlug, trace.EvUnplug, trace.EvBalk,
		trace.EvOutage, trace.EvDerate, trace.EvReplan:
		c.events = append(c.events, ev)
	}
}

// Begin captures the initial energy state. Call it after env.Reset(seed)
// — the initial ledger is meaningless before the fleet is materialized.
func (c *Checker) Begin() {
	c.initialKWh = nil
	if el, ok := c.env.(energyLedger); ok {
		c.initialKWh = make([]float64, c.fleet)
		for i := 0; i < c.fleet; i++ {
			c.initialKWh[i] = el.TaxiEnergyLedger(i).SoCKWh
		}
	}
}

// violate records a violation unless the cap is reached.
func (c *Checker) violate(name string, minute int, format string, args ...any) {
	if len(c.vs) >= c.opts.MaxViolations {
		return
	}
	c.vs = append(c.vs, Violation{Name: name, Minute: minute, Detail: fmt.Sprintf(format, args...)})
}

// AfterStep runs the per-step checks: SoC and region bounds for every
// taxi, the engine's structural self-check, and (when enabled) the energy
// and request ledgers. Call it after every env.Step.
func (c *Checker) AfterStep() {
	minute := c.env.Now()
	for i := 0; i < c.fleet; i++ {
		if soc := c.env.TaxiSoC(i); soc < -c.opts.SoCEps || soc > 1+c.opts.SoCEps {
			c.violate("soc-range", minute, "taxi %d SoC %.12f outside [0, 1]", i, soc)
		}
		if r := c.env.TaxiRegion(i); r < 0 || r >= c.regions {
			c.violate("region-range", minute, "taxi %d in region %d, partition has %d", i, r, c.regions)
		}
	}
	if sc, ok := c.env.(structuralChecker); ok {
		if err := sc.CheckInvariants(); err != nil {
			c.violate("structural", minute, "%v", err)
		}
	}
	if c.opts.Energy {
		c.checkEnergy(minute)
	}
	if c.opts.Requests {
		c.checkRequests(minute)
	}
}

// checkEnergy verifies per-taxi conservation: current SoC must equal the
// initial charge plus everything charged minus everything consumed, where
// the deficit credits energy an empty pack could not actually spend.
func (c *Checker) checkEnergy(minute int) {
	el, ok := c.env.(energyLedger)
	if !ok || c.initialKWh == nil {
		return
	}
	for i := 0; i < c.fleet; i++ {
		l := el.TaxiEnergyLedger(i)
		want := c.initialKWh[i] + l.ChargedKWh - (l.DrivenKm*l.ConsumptionPerKm - l.DeficitKWh)
		if diff := math.Abs(l.SoCKWh - want); diff > 1e-6*math.Max(1, l.CapacityKWh) {
			c.violate("energy-conservation", minute,
				"taxi %d holds %.9f kWh, ledger says %.9f (drift %.3g)", i, l.SoCKWh, want, diff)
		}
	}
}

// checkRequests verifies request conservation: every sampled request is
// served, expired, or still pending — never duplicated, never dropped.
func (c *Checker) checkRequests(minute int) {
	rl, ok := c.env.(requestLedger)
	if !ok {
		return
	}
	res := c.env.Results()
	if got := res.ServedRequests + res.UnservedRequests + rl.PendingRequests(); got != rl.GeneratedRequests() {
		c.violate("request-conservation", minute,
			"served %d + unserved %d + pending %d = %d, want %d generated",
			res.ServedRequests, res.UnservedRequests, rl.PendingRequests(), got, rl.GeneratedRequests())
	}
}

// Finish runs the end-of-horizon checks — stranding, the per-region
// demand tallies, and the full station shadow replay — and returns every
// violation collected over the run.
func (c *Checker) Finish() []Violation {
	res := c.env.Results()
	if c.opts.Stranding {
		for i := range res.Accounts {
			if sm := res.Accounts[i].StrandedMin; sm > 0 {
				c.violate("stranding", -1, "taxi %d stranded for %g minutes", i, sm)
			}
		}
	}
	c.checkRegionTallies(res)
	c.replayStations()
	return c.vs
}

// Violations returns everything collected so far without ending the run.
func (c *Checker) Violations() []Violation { return c.vs }

// Err returns nil when no violation was recorded, else an error
// summarizing the first one.
func (c *Checker) Err() error {
	if len(c.vs) == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s), first: %s", len(c.vs), c.vs[0])
}

// checkRegionTallies cross-checks the spatial-fairness accounting against
// the headline counters: the per-region demand/served tallies must sum to
// the citywide totals, and no region serves more than it demanded.
func (c *Checker) checkRegionTallies(res *sim.Results) {
	if res.RegionDemand == nil || res.RegionServed == nil {
		return
	}
	sumD, sumS := 0, 0
	for r := range res.RegionDemand {
		sumD += res.RegionDemand[r]
		sumS += res.RegionServed[r]
		if res.RegionServed[r] > res.RegionDemand[r] {
			c.violate("region-tally", -1, "region %d served %d > demanded %d",
				r, res.RegionServed[r], res.RegionDemand[r])
		}
	}
	if sumS != res.ServedRequests {
		c.violate("region-tally", -1, "region served sum %d != %d served", sumS, res.ServedRequests)
	}
	if rl, ok := c.env.(requestLedger); ok && sumD != rl.GeneratedRequests() {
		c.violate("region-tally", -1, "region demand sum %d != %d generated", sumD, rl.GeneratedRequests())
	}
}

// stationShadow is the replay model of one station: who is plugged, who is
// waiting (and since when), and whether the station is closed.
type stationShadow struct {
	capacity int
	closed   bool
	plugged  map[int]bool
	queue    map[int]int // taxi -> join minute
}

// replayStations replays the buffered event log through per-station shadow
// models. Events are grouped by minute stamp and each minute is processed
// in phases, state changes and removals before additions: canonical order
// sorts a minute's events by taxi, not by cause, so a promotion can precede
// the unplug that freed its point. A session releases its point at the
// minute its unplug is stamped, before any arrival of that minute.
func (c *Checker) replayStations() {
	if len(c.events) == 0 {
		return
	}
	stations := c.env.City().Stations
	shadows := make([]*stationShadow, stations.Len())
	shadow := func(id, minute int) *stationShadow {
		if id < 0 || id >= len(shadows) {
			c.violate("station-range", minute, "event references station %d, city has %d", id, len(shadows))
			return nil
		}
		if shadows[id] == nil {
			shadows[id] = &stationShadow{
				capacity: stations.Station(id).Points,
				plugged:  make(map[int]bool),
				queue:    make(map[int]int),
			}
		}
		return shadows[id]
	}
	st := &replayState{
		shadow:    shadow,
		pluggedAt: make(map[int]int),
		queuedAt:  make(map[int]int),
	}

	evs := c.events
	for lo := 0; lo < len(evs); {
		hi := lo
		minute := evs[lo].TimeMin
		for hi < len(evs) && evs[hi].TimeMin == minute {
			hi++
		}
		if hi < len(evs) && evs[hi].TimeMin < minute {
			c.violate("event-order", evs[hi].TimeMin, "event stamped @%d follows events stamped @%d", evs[hi].TimeMin, minute)
			return
		}
		c.replayMinute(evs[lo:hi], minute, st)
		lo = hi
	}
}

// replayState is the cross-minute state of one shadow replay.
type replayState struct {
	shadow func(id, minute int) *stationShadow
	// Where each taxi currently is, to catch cross-station double states.
	pluggedAt map[int]int
	queuedAt  map[int]int
}

// unqueue removes a taxi from a station's queue.
func (st *replayState) unqueue(s *stationShadow, taxi int) {
	delete(s.queue, taxi)
	delete(st.queuedAt, taxi)
}

// replayMinute applies one minute of events in semantic phases.
func (c *Checker) replayMinute(evs []trace.Event, minute int, st *replayState) {
	// closedAtStart snapshots closure state before this minute's edges:
	// a promotion stamped at the closure-edge minute was made when the
	// previous session released its point, ahead of the closure, and is
	// legal; any plug at a station that was already closed entering the
	// minute is not.
	closedAtStart := make(map[int]bool)
	snap := func(id int) {
		if s := st.shadow(id, minute); s != nil {
			if _, ok := closedAtStart[id]; !ok {
				closedAtStart[id] = s.closed
			}
		}
	}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.EvOutage, trace.EvPlug, trace.EvQueue:
			snap(ev.A)
		}
	}

	// Phase 1: closure edges. A closure drains the queue (the evictions
	// arrive as replan events in phase 2); a reopening changes nothing.
	for _, ev := range evs {
		if ev.Kind != trace.EvOutage {
			continue
		}
		if s := st.shadow(ev.A, minute); s != nil {
			s.closed = ev.B == 1
		}
	}

	// Phase 2: removals — unplugs and queue evictions free capacity that
	// this same minute's plugs may consume.
	for _, ev := range evs {
		switch ev.Kind {
		case trace.EvUnplug:
			s := st.shadow(ev.A, minute)
			if s == nil {
				continue
			}
			if !s.plugged[ev.Taxi] {
				c.violate("unplug-not-plugged", minute, "taxi %d unplugged from station %d it never occupied", ev.Taxi, ev.A)
				continue
			}
			if ev.V < 0 {
				c.violate("negative-energy", minute, "taxi %d unplugged %.6f kWh at station %d", ev.Taxi, ev.V, ev.A)
			}
			delete(s.plugged, ev.Taxi)
			delete(st.pluggedAt, ev.Taxi)
		case trace.EvReplan:
			s := st.shadow(ev.A, minute)
			if s == nil {
				continue
			}
			if at, ok := st.queuedAt[ev.Taxi]; !ok || at != ev.A {
				c.violate("replan-not-queued", minute, "taxi %d evicted from station %d it was not queued at", ev.Taxi, ev.A)
				continue
			}
			st.unqueue(s, ev.Taxi)
		}
	}

	// Phase 3: balks. A balking taxi is en route, never an occupant.
	for _, ev := range evs {
		if ev.Kind != trace.EvBalk {
			continue
		}
		if at, ok := st.pluggedAt[ev.Taxi]; ok {
			c.violate("balk-while-plugged", minute, "taxi %d balked at station %d while plugged at %d", ev.Taxi, ev.A, at)
		}
	}

	// Phase 4a: apply every plug — promotions leave the queue, walk-ups
	// just occupy — collecting the minute's promotions and walk-ups per
	// station for the set-wise discipline checks in 4b.
	type plugged struct {
		taxi   int
		joined int // join minute for promotions, -1 for walk-ups
	}
	proms := make(map[int][]plugged)
	walks := make(map[int][]int)
	for _, ev := range evs {
		if ev.Kind != trace.EvPlug {
			continue
		}
		s := st.shadow(ev.A, minute)
		if s == nil {
			continue
		}
		if at, ok := st.pluggedAt[ev.Taxi]; ok {
			c.violate("double-plug", minute, "taxi %d plugged at station %d while still plugged at %d", ev.Taxi, ev.A, at)
			continue
		}
		if at, queued := st.queuedAt[ev.Taxi]; queued && at != ev.A {
			c.violate("plug-while-queued", minute, "taxi %d plugged at station %d while queued at %d", ev.Taxi, ev.A, at)
			if other := st.shadow(at, minute); other != nil {
				st.unqueue(other, ev.Taxi)
			}
		} else if queued {
			if closedAtStart[ev.A] && s.closed {
				c.violate("plug-closed", minute, "taxi %d promoted at station %d closed since an earlier minute", ev.Taxi, ev.A)
			}
			proms[ev.A] = append(proms[ev.A], plugged{ev.Taxi, s.queue[ev.Taxi]})
			st.unqueue(s, ev.Taxi)
		} else {
			// A walk-up at a closed station is illegal even at the closure
			// edge: arrivals run after the perturbation sweep and must balk.
			if s.closed {
				c.violate("plug-closed", minute, "taxi %d plugged at closed station %d", ev.Taxi, ev.A)
			}
			walks[ev.A] = append(walks[ev.A], ev.Taxi)
		}
		s.plugged[ev.Taxi] = true
		st.pluggedAt[ev.Taxi] = ev.A
	}

	// Phase 4b: queue discipline, set-wise against the queue that remains
	// after all of the minute's departures. FIFO: no promoted taxi joined
	// strictly later than a taxi still waiting. Walk-up: nobody from an
	// earlier minute may still be waiting (same-minute joins are processed
	// in phase 5 — causally they happen after the plug).
	for stID, ps := range proms {
		for _, p := range ps {
			c.checkOvertake(st.shadow(stID, minute), "queue-fifo", minute, stID, p.taxi, p.joined)
		}
	}
	for stID, ws := range walks {
		for _, w := range ws {
			c.checkOvertake(st.shadow(stID, minute), "queue-jump", minute, stID, w, minute)
		}
	}

	// Phase 5: queue joins.
	for _, ev := range evs {
		if ev.Kind != trace.EvQueue {
			continue
		}
		s := st.shadow(ev.A, minute)
		if s == nil {
			continue
		}
		if s.closed {
			c.violate("queue-closed", minute, "taxi %d queued at closed station %d", ev.Taxi, ev.A)
		}
		if at, ok := st.pluggedAt[ev.Taxi]; ok {
			c.violate("queue-while-plugged", minute, "taxi %d queued at station %d while plugged at %d", ev.Taxi, ev.A, at)
			continue
		}
		if at, ok := st.queuedAt[ev.Taxi]; ok {
			c.violate("double-queue", minute, "taxi %d queued at station %d while already queued at %d", ev.Taxi, ev.A, at)
			continue
		}
		s.queue[ev.Taxi] = minute
		st.queuedAt[ev.Taxi] = ev.A
	}

	// End of minute: occupancy never exceeds the physical inventory.
	// (EffectivePoints can transiently be below occupancy when a derate
	// lands mid-session — sessions are never interrupted — so the hard
	// bound is the point count, matching station.CheckInvariants.)
	for _, ev := range evs {
		switch ev.Kind {
		case trace.EvPlug, trace.EvUnplug:
			if s := st.shadow(ev.A, minute); s != nil && len(s.plugged) > s.capacity {
				c.violate("over-capacity", minute, "station %d holds %d taxis on %d points", ev.A, len(s.plugged), s.capacity)
			}
		}
	}
}

// checkOvertake reports a violation when taxi plugged at station ahead of
// a taxi still waiting there that joined before minute joined. Of several
// overtaken taxis it names the earliest joiner (lowest ID on ties), so the
// report does not depend on map order.
func (c *Checker) checkOvertake(s *stationShadow, name string, minute, station, taxi, joined int) {
	first, firstJoin := -1, 0
	for other, om := range s.queue {
		if om < joined && (first < 0 || om < firstJoin || om == firstJoin && other < first) {
			first, firstJoin = other, om
		}
	}
	if first >= 0 {
		c.violate(name, minute, "taxi %d plugged at station %d ahead of taxi %d queued since @%d",
			taxi, station, first, firstJoin)
	}
}
