package sim

import (
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// New builds the simulator over city and resets it with seed. The city's
// regions are split across Options.Shards kernels (see shard.Assign); Step
// sequences the kernels' phase methods around serial barriers:
//
//	apply actions   (parallel)  ─┐
//	route migrants  (barrier)    │ taxis retargeted across the cut
//	generate+match  (parallel)   │ per-region demand and match streams
//	snapshot loads  (barrier)    │ queue pressure for the slot's replans
//	per minute:                  │
//	  run minute    (parallel)   │ calendar + charging sweeps
//	  route migrants(barrier)    │ balk/replan redirects across the cut
//	end slot        (parallel)   │ crawl drain, dropoff migrants
//	route + finish  (barrier)   ─┘ canonical merge, clock advance
//
// The parallel phases run on the Core's parallel.Fan, one block per kernel;
// with one shard (or one scheduler thread) they run inline on the caller.
func New(city *synth.City, opts Options, seed int64) *Core {
	opts.fillDefaults()
	c := &Core{
		city:        city,
		opts:        opts,
		slotLen:     city.Config.SlotMinutes,
		regionOwner: shard.Assign(city.Partition, opts.Shards),
	}
	c.buildKernels()
	c.beginFn = func(k int) { c.beginSlotApply(k, c.stepActions) }
	c.genFn = c.generateAndMatch
	c.minuteFn = func(k int) { c.runMinute(k, c.stepMinute) }
	c.endFn = c.endSlot
	c.Reset(seed)
	return c
}

// Core implements the full environment surface.
var _ Environment = (*Core)(nil)

// phaseTel holds the per-phase wall-clock timers, resolved once in
// SetTelemetry. They answer "where does a Step spend its time" — begin-slot
// apply, the serial route-migrants barriers, demand generation and matching,
// the per-minute sweeps, and end-of-slot drain. Like every Timer these are
// wall-clock and excluded from determinism comparisons; nil handles no-op,
// so an engine without telemetry never reads the clock.
type phaseTel struct {
	begin, route, gen, minute, end *telemetry.Timer
}

func newPhaseTel(r *telemetry.Registry) phaseTel {
	if r == nil {
		return phaseTel{}
	}
	return phaseTel{
		begin:  r.Timer("shard.phase.begin_slot_apply"),
		route:  r.Timer("shard.phase.route_migrants"),
		gen:    r.Timer("shard.phase.generate_and_match"),
		minute: r.Timer("shard.phase.run_minute"),
		end:    r.Timer("shard.phase.end_slot"),
	}
}

// Step applies one displacement action per vacant taxi (missing entries
// default to Stay) and advances the world by one time slot. It panics if
// the episode is done.
func (c *Core) Step(actions map[int]Action) {
	if c.Done() {
		panic("sim: Step after Done")
	}
	c.stepActions = actions
	sw := c.ptel.begin.Start()
	c.fan.Run(len(c.kernels), c.beginFn)
	sw.Stop()
	c.stepActions = nil
	sw = c.ptel.route.Start()
	c.routeMigrants()
	sw.Stop()
	sw = c.ptel.gen.Start()
	c.fan.Run(len(c.kernels), c.genFn)
	c.snapshotLoads()
	sw.Stop()
	start := c.nowMin
	for m := start; m < start+c.slotLen; m++ {
		c.stepMinute = m
		sw = c.ptel.minute.Start()
		c.fan.Run(len(c.kernels), c.minuteFn)
		sw.Stop()
		sw = c.ptel.route.Start()
		c.routeMigrants()
		sw.Stop()
	}
	sw = c.ptel.end.Start()
	c.fan.Run(len(c.kernels), c.endFn)
	sw.Stop()
	sw = c.ptel.route.Start()
	c.routeMigrants()
	c.finishSlot()
	sw.Stop()
}
