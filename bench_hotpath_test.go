package fairmove

// Hot-path benchmark set: the pinned micro/meso benchmarks behind
// BENCH_hotpath.json and `make alloc-gate`. Each entry measures one layer of
// the per-slot critical path — single-shard stepping, a single observation
// build, one served slot (decide plus step) under the GT heuristic and
// under CMA2C, single-row and batched network inference, and the
// nearest-station lookup the matcher leans on.
//
// The set is pinned: names are stable identifiers recorded in
// testdata/alloc_floors.json (allocs/op ceilings, enforced by TestAllocGate)
// and in BENCH_hotpath.json (ns/op + allocs/op, rewritten by
// `make bench-record`). Renaming an entry is an interface change.

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
)

type hotBench struct {
	name string
	run  func(b *testing.B)
}

// hotpathSet returns the pinned benchmarks at the current -benchscale.
// Engine benchmarks use the scale's city; the nn and geo entries are
// scale-independent (fixed shapes matching the deployed policy network and
// station index).
func hotpathSet(tb testing.TB) []hotBench {
	return []hotBench{
		{"sim_step_sharded1", func(b *testing.B) {
			benchStepSlots(b, sim.New(benchCity(b), sim.DefaultOptions(1), 42))
		}},
		{"env_observe", func(b *testing.B) {
			env := sim.New(benchCity(b), sim.DefaultOptions(1), 42)
			ids := env.VacantTaxis()
			if len(ids) == 0 {
				b.Fatal("no vacant taxis at reset")
			}
			id := ids[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Observe(id)
			}
		}},
		{"runner_step_gt", func(b *testing.B) {
			benchRunnerSteps(b, policy.NewGroundTruth())
		}},
		{"runner_step_cma2c", func(b *testing.B) {
			fm, err := core.New(core.DefaultConfig(0.6, 42))
			if err != nil {
				b.Fatal(err)
			}
			benchRunnerSteps(b, fm)
		}},
		{"nn_forward1", func(b *testing.B) {
			m, x := hotBenchNet()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Forward1(x)
			}
		}},
		{"nn_forward_rows256", func(b *testing.B) {
			m, x := hotBenchNet()
			rows := make([][]float64, 256)
			for i := range rows {
				rows[i] = x
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardRows(rows, 1)
			}
		}},
		{"geo_station_lookup", func(b *testing.B) {
			idx, queries := hotBenchIndex()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchNeighborSink = stationLookup(idx, queries[i%len(queries)], sim.KStations)
			}
		}},
	}
}

// benchRunnerSteps reports one policy.Runner.StepSlot per op: the decide
// path (VacantTaxis, Observe, Act, the decision record) plus the engine
// step, with episode restarts excluded from the timer. One untimed episode
// first grows every reused buffer, so allocs/op is the steady state at any
// b.N. The policy's weights do not matter here: allocation counts are the
// same for any weights.
func benchRunnerSteps(b *testing.B, p policy.Policy) {
	env := sim.New(benchCity(b), sim.DefaultOptions(1), 42)
	for r := policy.NewRunner(p, env, 42); !r.Done(); {
		r.StepSlot()
	}
	r := policy.NewRunner(p, env, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Done() {
			b.StopTimer()
			r = policy.NewRunner(p, env, 42)
			b.StartTimer()
		}
		r.StepSlot()
	}
}

// benchNeighborSink keeps the lookup result live and doubles as the reused
// destination buffer for the amortized lookup API.
var benchNeighborSink []geo.Neighbor

// stationLookup is the lookup the matcher's hot path performs. It is a
// seam: the benchmark measures whatever API the engines actually use —
// since the zero-allocation pass, KNearestInto through a reused buffer.
func stationLookup(g *geo.GridIndex, q geo.Point, k int) []geo.Neighbor {
	return g.KNearestInto(q, k, benchNeighborSink[:0])
}

// hotBenchNet builds the deployed policy-network shape (observation width in,
// one Q/logit per action out) and a deterministic input row.
func hotBenchNet() (*nn.MLP, []float64) {
	src := rng.New(3)
	m := nn.NewMLP(src, []int{sim.FeatureSize, 64, 64, sim.NumActions}, nn.ReLU, nn.Identity)
	x := make([]float64, sim.FeatureSize)
	for i := range x {
		x[i] = src.Uniform(-1, 1)
	}
	return m, x
}

// hotBenchIndex builds a station-density grid index (600 points ≈ the
// paper's charging network) plus a deterministic query workload.
func hotBenchIndex() (*geo.GridIndex, []geo.Point) {
	src := rng.New(7)
	pts := make([]geo.Point, 600)
	for i := range pts {
		pts[i] = geo.Point{
			Lng: src.Uniform(113.75, 114.65),
			Lat: src.Uniform(22.45, 22.85),
		}
	}
	idx := geo.NewGridIndex(pts, nil, 24)
	queries := make([]geo.Point, 1024)
	for i := range queries {
		queries[i] = geo.Point{
			Lng: src.Uniform(113.75, 114.65),
			Lat: src.Uniform(22.45, 22.85),
		}
	}
	return idx, queries
}

// BenchmarkHotpath runs the pinned set as sub-benchmarks:
//
//	go test -bench '^BenchmarkHotpath$' -benchmem -benchscale=full -run '^$' .
func BenchmarkHotpath(b *testing.B) {
	for _, hb := range hotpathSet(b) {
		b.Run(hb.name, hb.run)
	}
}

// --- allocation-regression gate (make alloc-gate) ---

var updateAllocFloors = flag.Bool("update-alloc-floors", false,
	"rewrite testdata/alloc_floors.json from the current measurements (make alloc-gate UPDATE=1)")

const allocFloorsPath = "testdata/alloc_floors.json"

// TestAllocGate measures allocs/op of every pinned benchmark — the hot-path
// set here plus the NN-layer set in bench_nn_test.go — and fails if any
// exceeds its recorded floor: the regression gate for the zero-allocation
// work. Floors are exact allocs/op at -benchscale=small
// (steady-state allocation counts do not depend on fleet size, so the gate
// stays cheap in ci). After a deliberate change, regenerate the floors with
//
//	go test -run TestAllocGate -update-alloc-floors .
//
// and commit the diff; the gate exists precisely so that step shows up in
// review.
func TestAllocGate(t *testing.T) {
	floors := map[string]int64{}
	if !*updateAllocFloors {
		data, err := os.ReadFile(allocFloorsPath)
		if err != nil {
			t.Fatalf("alloc-gate: %v (run with -update-alloc-floors to create)", err)
		}
		if err := json.Unmarshal(data, &floors); err != nil {
			t.Fatalf("alloc-gate: bad %s: %v", allocFloorsPath, err)
		}
	}
	gated := append(hotpathSet(t), nnBenchSet(t)...)
	measured := map[string]int64{}
	for _, hb := range gated {
		r := testing.Benchmark(hb.run)
		measured[hb.name] = r.AllocsPerOp()
		t.Logf("%-22s %d allocs/op (%d ops)", hb.name, r.AllocsPerOp(), r.N)
	}
	if *updateAllocFloors {
		data, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allocFloorsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", allocFloorsPath)
		return
	}
	for _, hb := range gated {
		floor, ok := floors[hb.name]
		if !ok {
			t.Errorf("alloc-gate: %s has no recorded floor; run -update-alloc-floors", hb.name)
			continue
		}
		if got := measured[hb.name]; got > floor {
			t.Errorf("alloc-gate: %s allocates %d/op, floor is %d/op", hb.name, got, floor)
		}
	}
}

// --- BENCH_hotpath.json recorder (make bench-record) ---

type hotpathBenchFile struct {
	Command        string              `json:"command"`
	BenchScale     string              `json:"benchscale"`
	BaselineCommit string              `json:"baseline_commit"`
	Entries        []hotpathBenchEntry `json:"entries"`
}

type hotpathBenchEntry struct {
	Name    string           `json:"name"`
	Before  hotpathBenchCell `json:"before"`
	After   hotpathBenchCell `json:"after"`
	Speedup float64          `json:"speedup,omitempty"`
}

type hotpathBenchCell struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

const hotpathBenchPath = "BENCH_hotpath.json"

// TestRecordHotpathBench re-measures the pinned hot-path set (best ns/op of
// three repetitions, exact allocs/op) and rewrites the "after" column of
// BENCH_hotpath.json. The "before" column — the same benchmarks run against
// the pre-optimization tree at the recorded baseline commit — is preserved
// from the existing file, so the before/after pairing survives re-records.
// Guarded by -recordbench; run at -benchscale=full for the committed file.
func TestRecordHotpathBench(t *testing.T) {
	if !*recordBench {
		t.Skip("pass -recordbench (make bench-record) to rewrite BENCH_hotpath.json")
	}
	prior := map[string]hotpathBenchEntry{}
	out := hotpathBenchFile{Command: "make bench-record", BenchScale: resolveBenchScale(t)}
	if data, err := os.ReadFile(hotpathBenchPath); err == nil {
		var old hotpathBenchFile
		if err := json.Unmarshal(data, &old); err != nil {
			t.Fatalf("bad %s: %v", hotpathBenchPath, err)
		}
		out.BaselineCommit = old.BaselineCommit
		for _, e := range old.Entries {
			prior[e.Name] = e
		}
	}
	for _, hb := range hotpathSet(t) {
		entry := hotpathBenchEntry{Name: hb.name, Before: prior[hb.name].Before}
		var allocs int64
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(hb.run)
			if ns := float64(r.NsPerOp()); best == 0 || ns < best {
				best = ns
			}
			allocs = r.AllocsPerOp()
		}
		entry.After = hotpathBenchCell{NsPerOp: best, AllocsPerOp: allocs}
		if entry.Before.NsPerOp > 0 {
			entry.Speedup = entry.Before.NsPerOp / entry.After.NsPerOp
		}
		t.Logf("%-22s %12.0f ns/op %4d allocs/op (before: %.0f ns/op, %d allocs/op)",
			hb.name, entry.After.NsPerOp, entry.After.AllocsPerOp,
			entry.Before.NsPerOp, entry.Before.AllocsPerOp)
		out.Entries = append(out.Entries, entry)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hotpathBenchPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote " + hotpathBenchPath)
}
