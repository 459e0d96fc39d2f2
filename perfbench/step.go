package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	fairmove "repro"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

const (
	// citySeed is the scenario seed of the paper city every serving
	// workload runs on. The golden CMA2C checkpoint's fingerprint covers
	// (seed 42, α 0.6), so the learned policy loads only on this city.
	citySeed = 42
	// defaultSeed is the demand seed the facade evaluates the seed-42 city
	// with (System.EvalSeed), so the default run serves exactly what
	// `fairmove serve -seed 42` serves. --seed replaces it.
	defaultSeed = 1042
	// paperFleet is the paper's fleet size (Shenzhen, 20,130 e-taxis).
	paperFleet = 20130
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 7
	// slotsPerHour at the paper's 10-minute slots.
	slotsPerHour = 6
)

// stepSpec is a closed-loop serving workload: one caller steps the service
// slot by slot with StepSlots(ctx, 1), as an operator's /step client would,
// and ingest is bypassed.
type stepSpec struct {
	name   string
	method fairmove.Method
	shards int    // Config.Shards: 0 is the default engine
	policy string // checkpoint to load, relative to the repository root
	warmup int    // slots stepped during set-up
	// nominal is the workload's slots per second on the reference host; it
	// sizes the window (windowSlots) and nothing else.
	nominal float64
}

// cma2cFull is the headline: the paper fleet under the learned CMA2C
// policy, built as `fairmove serve -method FairMove` builds it (default
// engine, default Workers). Decide (Observe plus forward and sample)
// dominates the slot.
var cma2cFull = stepSpec{
	name:    "serve-cma2c-full",
	method:  fairmove.FairMove,
	policy:  "testdata/checkpoints/cma2c.fmck",
	warmup:  12,
	nominal: 23,
}

// gtFullK2 is engine-heavy: the paper fleet under the GT heuristic on the
// region-sharded engine with two shards, the only workload whose engine
// fans out across both cores.
var gtFullK2 = stepSpec{
	name:    "serve-gt-full-k2",
	method:  fairmove.GT,
	shards:  2,
	warmup:  24,
	nominal: 100,
}

// stepRig is one set-up service under test.
type stepRig struct {
	sys    *fairmove.System
	pol    policy.Policy // the policy served, never a traced wrapper
	srv    *serve.Server
	buildS float64
	loadS  float64
}

// setup builds the system through the facade, loads the policy, starts the
// service and steps the warm-up slots. total is the number of slots the
// run will step, warm-up included; the horizon is sized to cover it.
func (sp stepSpec) setup(ctx context.Context, seed int64, total int, tr *tracer) (*stepRig, error) {
	cfg := fairmove.DefaultConfig(citySeed)
	cfg.Fleet = paperFleet
	cfg.Shards = sp.shards
	slotsPerDay := 24 * 60 / cfg.SlotMinutes
	cfg.Days = (total + slotsPerDay - 1) / slotsPerDay
	start := time.Now()
	s, err := fairmove.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	rig := &stepRig{sys: s, buildS: time.Since(start).Seconds()}
	if tr != nil {
		s.SetTelemetry(tr.reg)
	}
	start = time.Now()
	if sp.policy != "" {
		if err := s.LoadPolicy(sp.policy); err != nil {
			return nil, err
		}
		rig.loadS = time.Since(start).Seconds()
	}
	if rig.pol, err = s.PolicyFor(sp.method); err != nil {
		return nil, err
	}
	var srvEnv sim.Environment = s.EvalEnv()
	srvPol := rig.pol
	if tr != nil {
		srvEnv, srvPol = tracedEnv{srvEnv, tr}, tracedPolicy{rig.pol, tr}
	}
	rig.srv, err = serve.New(serve.Config{Env: srvEnv, Policy: srvPol, Seed: seed})
	if err != nil {
		return nil, err
	}
	rig.srv.Start()
	for i := 0; i < sp.warmup; i++ {
		if _, err := rig.step(ctx, nil); err != nil {
			rig.drain()
			return nil, fmt.Errorf("warm-up slot %d: %w", i, err)
		}
	}
	return rig, nil
}

// step closes one slot. Nothing else runs in the timed loop: what the slot
// published is checked after the window, against an untimed replay.
func (r *stepRig) step(ctx context.Context, tr *tracer) (time.Duration, error) {
	start := time.Now()
	n, err := r.srv.StepSlots(ctx, 1)
	end := time.Now()
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("stepped %d slots, want 1", n)
	}
	if tr != nil {
		tr.add(span{Name: "slot", Trace: r.srv.Slot() - 1, Start: tr.ns(start), End: tr.ns(end)})
	}
	return end.Sub(start), nil
}

func (r *stepRig) drain() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.srv.Drain(ctx) // a stuck driver shows as a failed digest check
}

// pass is one set-up-and-window of a workload.
type pass struct {
	setupS float64 // median CPU seconds per set-up
	win    window
}

// measure sets up repeats times (keeping the last rig), runs an n-slot
// window, drains, and applies the correctness gate. With a tracer it also
// fills the per-layer metrics from the window.
func (sp stepSpec) measure(ctx context.Context, opts runOpts, n, repeats int, tr *tracer, o *outcome) (pass, error) {
	var p pass
	var rig *stepRig
	var times []float64
	for i := 0; i < repeats; i++ {
		if rig != nil {
			rig.drain()
			rig = nil
		}
		runtime.GC()
		start := cpuTime()
		var err error
		rig, err = sp.setup(ctx, opts.seed, sp.warmup+n, tr)
		if err != nil {
			return p, fmt.Errorf("setup: %w", err)
		}
		times = append(times, (cpuTime() - start).Seconds())
	}
	p.setupS = median(times)

	if tr != nil {
		tr.reset()
	}
	p.win.heap = liveHeapMiB()
	snap0 := telemetrySnapshot(tr)
	ms0 := memSnap()
	c0, t0 := cpuTime(), time.Now()
	lat := make([]time.Duration, 0, n)
	every := partEvery(n)
	p.win.markAt(0)
	for i := 0; i < n; i++ {
		o.attempted++
		d, err := rig.step(ctx, tr)
		if err != nil {
			o.failed++
			o.gate.fail("window slot %d: %v", i, err)
			break
		}
		lat = append(lat, d)
		if (i+1)%every == 0 {
			p.win.markAt(i + 1)
		}
	}
	p.win.lat, p.win.wall, p.win.cpu, p.win.slots = lat, time.Since(t0), cpuTime()-c0, len(lat)
	ms1 := memSnap()
	snap1 := telemetrySnapshot(tr)
	if tr != nil {
		p.win.heapEnd = liveHeapMiB()
	}
	rig.drain()

	served, generated := checkServed(&o.gate, sp.name, rig.srv, rig.sys, rig.pol, opts.seed, sp.warmup+n, tr != nil)
	if tr == nil || len(lat) == 0 {
		return p, nil
	}

	vac := tr.vacantCounts()
	tr.slotLayers(o, len(lat), snap1.Diff(snap0))
	runtimeLayers(o, ms0, ms1, p.win.heap, p.win.heapEnd, len(lat))
	o.values["sim.served_over_generated"] = float64(served) / float64(generated)
	o.values["synth.build_s"] = rig.buildS
	o.values["checkpoint.load_s"] = rig.loadS
	o.values["nn.forward_batch_ms"], o.values["nn.forward_flops"] = forwardBench(medianInt(vac))
	feed := serve.RecordFeed(rig.sys.City(), rig.sys.EvalOptions(), opts.seed, 1)
	bodies, _, err := encodeBodies(feed, ingestBatch)
	if err != nil {
		return p, err
	}
	if o.values["serve.parse_us_per_batch"], err = parseBench(bodies); err != nil {
		return p, err
	}
	notExercised(o, "serve.cpu_us_per_event", "serve.queue_depth_max", "serve.rejected",
		"serve.ingest_p50_ms", "serve.ingest_p95_ms", "serve.feed_record_s", "loadgen.late_p95_ms",
		"core.pretrain_s", "core.finetune_s", "core.train_s")
	path, err := tr.write(opts.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", sp.name, opts.seed))
	if err != nil {
		return p, err
	}
	fmt.Printf("spans written to %s\n", path)
	return p, nil
}

// run is the workload entry point: the untraced pass always, then for
// --trace 1 the traced pass and the per-layer metrics.
func (sp stepSpec) run(opts runOpts) (*outcome, error) {
	ctx := context.Background()
	n := windowSlots(opts.seconds, sp.nominal, slotsPerHour)
	fmt.Printf("window %d slots after %d warm-up slots\n", n, sp.warmup)
	o := newOutcome()
	repeats := setupRepeats
	if opts.traced {
		repeats = 1 // set-up time is reported by untraced runs only
	}
	base, err := sp.measure(ctx, opts, n, repeats, nil, o)
	if err != nil {
		return nil, err
	}
	endToEndValues(o, base.win, base.setupS)
	if !opts.traced {
		return o, nil
	}
	slotTail(o, base.win)
	traced, err := sp.measure(ctx, opts, n, 1, newTracer(), o)
	if err != nil {
		return nil, err
	}
	o.values["trace.overhead_frac"] = slotsPerS(base.win)/slotsPerS(traced.win) - 1
	return o, nil
}

func slotsPerS(w window) float64 { return float64(w.slots) / w.wall.Seconds() }

func telemetrySnapshot(tr *tracer) telemetry.Snapshot {
	if tr == nil {
		return telemetry.Snapshot{}
	}
	return tr.reg.Snapshot()
}

func medianInt(xs []int) int {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return int(median(fs))
}
