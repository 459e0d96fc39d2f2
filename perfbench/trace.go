package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// span is one timed interval at a layer boundary. Spans of one slot share
// Trace (the slot index; ingest batches use their batch index and training
// runs their run index). Aggregated spans, such as the thousands of Observe
// calls of one slot, carry the summed call time in Busy and the call count.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int    `json:"calls,omitempty"`
}

func (s span) dur() time.Duration {
	if s.Calls > 0 {
		return time.Duration(s.Busy)
	}
	return time.Duration(s.End - s.Start)
}

// tracer keeps spans in memory and the counters recorded at the same
// boundaries. The policy and environment wrappers run on the service's
// single driver goroutine; root spans come from the benchmark's own
// goroutines, so appends are locked.
type tracer struct {
	epoch time.Time
	reg   *telemetry.Registry

	mu    sync.Mutex
	spans []span

	// Driver-goroutine state.
	obsBusy          time.Duration
	obsCalls         int
	obsStart, obsEnd time.Time
	stepCPU          time.Duration
	stepWall         time.Duration
	vacant           []int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reg: telemetry.NewRegistry()}
}

func (t *tracer) ns(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops everything recorded so far: warm-up spans do not count.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.stepCPU, t.stepWall = 0, 0
	t.vacant = t.vacant[:0]
	t.mu.Unlock()
}

// tracedEnv times Observe (aggregated per slot) and Step.
type tracedEnv struct {
	sim.Environment
	t *tracer
}

func (e tracedEnv) Observe(id int) sim.Observation {
	start := time.Now()
	o := e.Environment.Observe(id)
	end := time.Now()
	t := e.t
	if t.obsCalls == 0 {
		t.obsStart = start
	}
	t.obsEnd = end
	t.obsBusy += end.Sub(start)
	t.obsCalls++
	return o
}

func (e tracedEnv) Step(actions map[int]sim.Action) {
	slot := e.Environment.Slot()
	c0, start := cpuTime(), time.Now()
	e.Environment.Step(actions)
	end, c1 := time.Now(), cpuTime()
	e.t.stepCPU += c1 - c0
	e.t.stepWall += end.Sub(start)
	e.t.add(span{Name: "sim.step", Trace: slot, Parent: "slot", Start: e.t.ns(start), End: e.t.ns(end)})
}

// tracedPolicy times Act and attaches the slot's Observe aggregate to it.
type tracedPolicy struct {
	policy.Policy
	t *tracer
}

func (p tracedPolicy) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	t := p.t
	slot := env.Slot()
	t.obsBusy, t.obsCalls = 0, 0
	start := time.Now()
	acts := p.Policy.Act(env, vacant)
	end := time.Now()
	t.add(span{Name: "policy.act", Trace: slot, Parent: "slot", Start: t.ns(start), End: t.ns(end)})
	if t.obsCalls > 0 {
		t.add(span{Name: "sim.observe", Trace: slot, Parent: "policy.act",
			Start: t.ns(t.obsStart), End: t.ns(t.obsEnd), Busy: int64(t.obsBusy), Calls: t.obsCalls})
	}
	t.mu.Lock()
	t.vacant = append(t.vacant, len(vacant))
	t.mu.Unlock()
	return acts
}

// vacantCounts returns a copy of the per-slot vacant counts recorded so far.
func (t *tracer) vacantCounts() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int(nil), t.vacant...)
}

// totals sums span durations and call counts by name.
func (t *tracer) totals() (dur map[string]time.Duration, calls map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dur, calls = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		dur[s.Name] += s.dur()
		calls[s.Name] += s.Calls
	}
	return dur, calls
}

// slotLayers fills the per-slot layer metrics from the window's spans and
// the telemetry delta. Self times: Act's self time is Act minus Observe,
// the driver's is the slot minus Act minus Step.
func (t *tracer) slotLayers(o *outcome, slots int, tel telemetry.Snapshot) {
	dur, calls := t.totals()
	per := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(slots) }
	o.values["policy.act_ms_per_slot"] = per(dur["policy.act"])
	o.values["sim.observe_ms_per_slot"] = per(dur["sim.observe"])
	o.values["sim.observe_ns_per_call"] = 0
	if n := calls["sim.observe"]; n > 0 {
		o.values["sim.observe_ns_per_call"] = float64(dur["sim.observe"]) / float64(n)
	}
	o.values["core.forward_sample_ms_per_slot"] = per(dur["policy.act"] - dur["sim.observe"])
	o.values["sim.step_ms_per_slot"] = per(dur["sim.step"])
	o.values["serve.driver_ms_per_slot"] = per(dur["slot"] - dur["policy.act"] - dur["sim.step"])
	o.values["shard.step_cpu_over_wall"] = 0
	if t.stepWall > 0 {
		o.values["shard.step_cpu_over_wall"] = float64(t.stepCPU) / float64(t.stepWall)
	}
	vac := t.vacantCounts()
	sum := 0
	for _, v := range vac {
		sum += v
	}
	o.values["policy.vacant_per_slot"] = float64(sum) / float64(len(vac))
	o.values["sim.matches_per_slot"] = float64(tel.Counters["sim.matches"]) / float64(slots)
	for _, p := range shardPhases {
		o.values["shard."+p+"_ms_per_slot"] = float64(tel.Timers["shard.phase."+p].TotalNs) / 1e6 / float64(slots)
	}
}

// write saves the spans as JSON lines and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// runtimeLayers fills the allocator and GC metrics from MemStats taken at
// the window's edges and the live heap before and after it.
func runtimeLayers(o *outcome, before, after runtime.MemStats, heapBefore, heapAfter float64, slots int) {
	n := float64(slots)
	o.values["go.allocs_per_slot"] = float64(after.Mallocs-before.Mallocs) / n
	o.values["go.alloc_kb_per_slot"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	o.values["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	o.values["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	o.values["go.heap_growth_kb_per_slot"] = (heapAfter - heapBefore) * 1024 / n
}

// forwardBench times a standalone ForwardBatch at the CMA2C actor's shape
// with the given number of rows (the median vacant count of a slot) and
// returns the median milliseconds per call and the computed FLOPs per call
// (two per multiply-add, biases and activations not counted).
func forwardBench(rows int) (ms, flops float64) {
	if rows < 1 {
		rows = 1
	}
	sizes := append([]int{sim.FeatureSize}, core.DefaultConfig(0.6, 42).Hidden...)
	sizes = append(sizes, sim.NumActions)
	src := rng.New(7)
	m := nn.NewMLP(src, sizes, nn.Tanh, nn.Identity)
	x := &nn.Mat{Rows: rows, Cols: sim.FeatureSize, Data: make([]float32, rows*sim.FeatureSize)}
	for i := range x.Data {
		x.Data[i] = float32(src.Uniform(-1, 1))
	}
	for i := 1; i < len(sizes); i++ {
		flops += 2 * float64(rows) * float64(sizes[i-1]) * float64(sizes[i])
	}
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < 3; i++ {
		m.ForwardBatch(x, workers)
	}
	times := make([]float64, 31)
	for i := range times {
		start := time.Now()
		m.ForwardBatch(x, workers)
		times[i] = float64(time.Since(start)) / 1e6
	}
	return median(times), flops
}

// parseBench times serve.ParseBatch over recorded ingest bodies and returns
// the median microseconds per batch over several passes.
func parseBench(bodies [][]byte) (float64, error) {
	if len(bodies) == 0 {
		return 0, fmt.Errorf("no bodies to parse")
	}
	passes := make([]float64, 7)
	for p := range passes {
		start := time.Now()
		for _, b := range bodies {
			if _, err := serve.ParseBatch(b, serve.DefaultMaxBatch); err != nil {
				return 0, err
			}
		}
		passes[p] = float64(time.Since(start)) / 1e3 / float64(len(bodies))
	}
	return median(passes), nil
}
