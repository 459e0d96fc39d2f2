package fairmove

// Hot-path benchmark set: the pinned micro/meso benchmarks behind
// `make alloc-gate`. Each entry measures one layer of the per-slot critical
// path — single-shard stepping, a single observation build, the batched
// observation rows of a slot's vacant set, one served slot
// (decide plus step) under the GT heuristic and under CMA2C, one slot of
// the dispatch service under GT (driver round trip, step and publication),
// single-row and
// batched network inference, the nearest-station lookup the matcher leans
// on, and the ingest decoder on one recorded feed batch.
//
// The set is pinned: names are stable identifiers recorded in
// testdata/alloc_floors.json (allocs/op ceilings, enforced by TestAllocGate).
// Renaming an entry is an interface change. End-to-end timings live in
// perfbench (BENCHMARK.json), not here.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/serve"
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
		{"env_observe_rows", func(b *testing.B) {
			env := sim.New(benchCity(b), sim.DefaultOptions(1), 42)
			ids := env.VacantTaxis()
			if len(ids) == 0 {
				b.Fatal("no vacant taxis at reset")
			}
			feats := make([]float32, len(ids)*sim.FeatureSize)
			masks := make([][sim.NumActions]bool, len(ids))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.PrepareObserve(ids)
				env.ObserveRows(ids, feats, masks)
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
		{"serve_step_slot", benchServeSteps},
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
		{"serve_parse_batch", func(b *testing.B) {
			body := hotBenchIngestBody(b)
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := serve.ParseBatch(body, serve.DefaultMaxBatch); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// hotBenchIngestBody is the first 256-event ingest body of the ground-truth
// feed recorded on the bench city: the NDJSON a feed client POSTs to
// /ingest, GPS fixes and trip requests mixed as the service receives them.
func hotBenchIngestBody(b *testing.B) []byte {
	const batch = 256
	city := benchCity(b)
	slots := (batch + len(city.Fleet) - 1) / len(city.Fleet)
	events := serve.RecordFeed(city, sim.DefaultOptions(1), 42, slots)
	if len(events) < batch {
		b.Fatalf("recorded %d events, want at least %d", len(events), batch)
	}
	body, err := serve.EncodeBatch(events[:batch])
	if err != nil {
		b.Fatal(err)
	}
	return body
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

// benchServeSteps reports one served slot per op: StepSlots(ctx, 1) on a
// started server under the GT heuristic — the driver round trip, decide,
// the engine step beside the publisher, and the commit. One untimed episode
// first grows the engine's buffers, and every server (each resets the same
// engine) serves History+1 slots untimed, so the history window recycles
// its storage and allocs/op is the steady state; a server whose horizon
// ends is drained and replaced outside the timer.
func benchServeSteps(b *testing.B) {
	ctx := context.Background()
	gt := policy.NewGroundTruth()
	env := sim.New(benchCity(b), sim.DefaultOptions(1), 42)
	for r := policy.NewRunner(gt, env, 42); !r.Done(); {
		r.StepSlot()
	}
	start := func() *serve.Server {
		srv, err := serve.New(serve.Config{Env: env, Policy: gt, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		if _, err := srv.StepSlots(ctx, serve.DefaultHistory+1); err != nil {
			b.Fatal(err)
		}
		return srv
	}
	srv := start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.Done() {
			b.StopTimer()
			if err := srv.Drain(ctx); err != nil {
				b.Fatal(err)
			}
			srv = start()
			b.StartTimer()
		}
		if _, err := srv.StepSlots(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := srv.Drain(ctx); err != nil {
		b.Fatal(err)
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
