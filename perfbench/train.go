package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	fairmove "repro"
	"repro/internal/telemetry"
)

// trainSpec is the training workload: the facade's default configuration
// at 300 taxis, trained with fixed pretrain and fine-tune episode counts and
// saved. It is the only workload that runs nn backward passes, Adam, and
// demonstration collection.
type trainSpec struct {
	name     string
	pretrain int
	finetune int
	// nominalRunS is one training run's wall time on the reference host; it
	// sizes the window (how many runs) and nothing else.
	nominalRunS float64
}

var train300 = trainSpec{name: "train-cma2c-300", pretrain: 1, finetune: 1, nominalRunS: 1.3}

// trainRun is one training run's outcome.
type trainRun struct {
	wall, cpu time.Duration
	steal     time.Duration
	buildS    float64
	slots     int
	sha       string
	sys       *fairmove.System
}

// once builds a fresh system at seed, trains it, and saves the policy to
// path; the returned SHA-256 is the saved file's. Only the training call
// is timed: saving syncs the file to disk, whose latency is not the
// program's.
func (ts trainSpec) once(seed int64, path string, reg *telemetry.Registry) (trainRun, error) {
	cfg := fairmove.DefaultConfig(seed)
	cfg.PretrainEpisodes, cfg.TrainEpisodes = ts.pretrain, ts.finetune
	// One worker: training fans out many small minibatch passes, and with
	// two the CPU per slot spread 0.18 of its median over ten seeds on the
	// reference host, against 0.06 with one. Every worker count trains
	// byte-identical weights, so the saved policy is the same.
	cfg.Workers = 1
	start := time.Now()
	s, err := fairmove.NewSystem(cfg)
	if err != nil {
		return trainRun{}, err
	}
	buildS := time.Since(start).Seconds()
	s.SetTelemetry(reg)
	c0, s0, t0 := cpuTime(), stealTime(), time.Now()
	rep, err := s.TrainWithOptions(fairmove.TrainOptions{})
	r := trainRun{wall: time.Since(t0), cpu: cpuTime() - c0, steal: stealTime() - s0, buildS: buildS, sys: s}
	if err != nil {
		return r, err
	}
	slotsPerDay := 24 * 60 / s.Config().SlotMinutes
	r.slots = (ts.pretrain + rep.Episodes) * s.Config().TrainDays * slotsPerDay
	if err := s.SavePolicy(path); err != nil {
		return r, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	sum := sha256.Sum256(data)
	r.sha = hex.EncodeToString(sum[:])
	return r, nil
}

// cities returns the config seeds of an n-run window: n consecutive seeds
// derived from seed, one city each. The seed changes the whole scenario
// (regions, stations, demand); cities differ by about 5% in CPU per
// training slot, so a window of several cities depends less on one draw
// than a window that repeats one city.
func (ts trainSpec) cities(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*int64(n) + int64(i)
	}
	return out
}

// run sets up by training every city of the window once (the median CPU
// time of these runs is setup_s, and their saved policies are the
// references), then times a window that trains every city again and checks
// each saved policy against its reference. A slot here is one simulated
// training slot.
func (ts trainSpec) run(opts runOpts) (*outcome, error) {
	runs := int(opts.seconds/ts.nominalRunS + 0.5)
	if runs < 1 {
		runs = 1
	}
	seeds := ts.cities(opts.seed, runs)
	fmt.Printf("window %d training runs of %d pretrain + %d fine-tune episodes, config seeds %v\n", runs, ts.pretrain, ts.finetune, seeds)
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(opts.outDir, fmt.Sprintf("policy-%s-seed%d.fmck", ts.name, opts.seed))
	o := newOutcome()

	var setups, builds, loads []float64
	var last *fairmove.System
	refs := make([]string, len(seeds))
	for i, seed := range seeds {
		runtime.GC()
		start := cpuTime()
		r, err := ts.once(seed, path, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		loadStart := time.Now()
		if err := r.sys.LoadPolicy(path); err != nil {
			return nil, fmt.Errorf("setup: reload saved policy: %w", err)
		}
		loads = append(loads, time.Since(loadStart).Seconds())
		last = r.sys
		builds = append(builds, r.buildS)
		setups = append(setups, (cpuTime() - start).Seconds())
		refs[i] = r.sha
		fmt.Printf("digest %s config seed %d: %s (saved policy SHA-256)\n", ts.name, seed, r.sha)
	}

	// The live heap once set up: one trained system with its policy
	// reloaded from disk.
	heap := liveHeapMiB()
	runtime.KeepAlive(last)
	base, err := ts.window(seeds, path, refs, nil, o)
	if err != nil {
		return nil, err
	}
	base.win.heap = heap
	endToEndValues(o, base.win, median(setups))
	if !opts.traced {
		return o, nil
	}

	reg := telemetry.NewRegistry()
	traced, err := ts.window(seeds, path, refs, reg, o)
	if err != nil {
		return nil, err
	}
	o.values["trace.overhead_frac"] = slotsPerS(base.win)/slotsPerS(traced.win) - 1
	snap := reg.Snapshot()
	fine := float64(snap.Timers["core.episode"].TotalNs) / 1e9 / float64(runs)
	train := traced.win.wall.Seconds() / float64(runs)
	o.values["core.train_s"] = train
	o.values["core.finetune_s"] = fine
	o.values["core.pretrain_s"] = train - fine
	runtimeLayers(o, traced.ms0, traced.ms1, traced.win.heap, traced.win.heapEnd, traced.win.slots)
	o.values["synth.build_s"] = median(builds)
	o.values["checkpoint.load_s"] = median(loads)
	// The fleet: training batches its inference over the vacant taxis of a
	// 300-taxi fleet, at most 300 rows.
	o.values["nn.forward_batch_ms"], o.values["nn.forward_flops"] = forwardBench(300)
	// Training runs none of the serving layers; its throughput is in
	// slots_per_s and core.train_s.
	notExercised(o, "serve.slot_p50_ms")
	for _, d := range perLayer {
		if _, ok := o.values[d.name]; !ok {
			notExercised(o, d.name)
		}
	}
	return o, nil
}

// trainWindow is the measurement of one window of training runs.
type trainWindow struct {
	win      window
	ms0, ms1 runtime.MemStats
}

// window trains every city of seeds once and checks each saved policy
// against its reference in refs. Each run is a part, and the window
// reports its lower quartile (see window.lowQuartile).
func (ts trainSpec) window(seeds []int64, path string, refs []string, reg *telemetry.Registry, o *outcome) (trainWindow, error) {
	var w trainWindow
	w.win.lowQuartile = true
	w.win.heap = liveHeapMiB()
	w.ms0 = memSnap()
	var last *fairmove.System
	var perSlot []time.Duration
	for i, seed := range seeds {
		o.attempted++
		r, err := ts.once(seed, path, reg)
		if err != nil {
			o.failed++
			o.gate.fail("training run %d: %v", i, err)
			continue
		}
		last = r.sys
		w.win.wall += r.wall
		w.win.cpu += r.cpu
		w.win.slots += r.slots
		w.win.parts = append(w.win.parts, part{wall: r.wall, cpu: r.cpu, steal: r.steal, slots: r.slots})
		perSlot = append(perSlot, r.wall/time.Duration(r.slots))
		o.gate.equal(fmt.Sprintf("window run %d (config seed %d) saved policy SHA-256", i, seed), refs[i], r.sha)
	}
	w.ms1 = memSnap()
	w.win.lat = perSlot
	w.win.heapEnd = liveHeapMiB()
	runtime.KeepAlive(last)
	if w.win.slots == 0 {
		return w, fmt.Errorf("no training run completed")
	}
	return w, nil
}
