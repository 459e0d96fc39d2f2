package fairmove

// Hot-path benchmark set: the pinned bodies behind `make alloc-gate`. Each
// entry measures one layer of the per-slot critical path — single-shard
// and two-shard stepping, the engine's episode reset, a single observation
// build, the batched observation rows of a slot's vacant set, one served
// slot (decide plus step) under the GT heuristic and under CMA2C, one slot of the dispatch
// service under GT (driver round trip, step and publication), single-row
// network inference, the nearest-station lookup the matcher leans on, and
// the ingest decoder on one recorded feed batch.
//
// Each entry's setup warms its body up and returns one operation. Stepping
// entries run two full episodes and reset; the others run their operation
// once. TestAllocGate then counts the allocations of a fixed number of
// operations, and BenchmarkHotpath times b.N of them. A stepping operation
// starts its own new episode when the current one is done, so a benchmark
// run longer than one episode (144 slots) counts the restart's time and
// allocations in its per-op figures; the gate's run stays inside one
// episode.
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
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
)

// hotBench is one pinned body. setup builds it, warms it up so every
// reusable buffer is at its high-water mark, and returns one operation.
type hotBench struct {
	name  string
	setup func(tb testing.TB) (op func())
}

// hotpathSet returns the pinned benchmarks at the current -benchscale.
// Engine benchmarks use the scale's city; the nn and geo entries are
// scale-independent (fixed shapes matching the deployed policy network and
// station index).
func hotpathSet() []hotBench {
	return []hotBench{
		{"sim_step_sharded1", func(tb testing.TB) func() {
			return stepOp(sim.New(benchCity(tb), sim.DefaultOptions(1), 42))
		}},
		{"sim_step_sharded2", func(tb testing.TB) func() {
			return stepOp(sim.New(benchCity(tb), policy.EpisodeOptions(1, 2), 42))
		}},
		{"sim_reset", func(tb testing.TB) func() {
			env := sim.New(benchCity(tb), sim.DefaultOptions(1), 42)
			return warmOnce(func() { env.Reset(42) })
		}},
		{"env_observe", func(tb testing.TB) func() {
			env := sim.New(benchCity(tb), sim.DefaultOptions(1), 42)
			id := hotBenchVacant(tb, env)[0]
			return warmOnce(func() { env.Observe(id) })
		}},
		{"env_observe_rows", func(tb testing.TB) func() {
			env := sim.New(benchCity(tb), sim.DefaultOptions(1), 42)
			ids := hotBenchVacant(tb, env)
			feats := make([]float32, len(ids)*sim.FeatureSize)
			masks := make([][sim.NumActions]bool, len(ids))
			return warmOnce(func() {
				env.PrepareObserve(ids)
				env.ObserveRows(ids, feats, masks)
			})
		}},
		{"runner_step_gt", func(tb testing.TB) func() {
			return runnerOp(tb, policy.NewGroundTruth())
		}},
		{"runner_step_cma2c", func(tb testing.TB) func() {
			fm, err := core.New(core.DefaultConfig(0.6, 42))
			if err != nil {
				tb.Fatal(err)
			}
			return runnerOp(tb, fm)
		}},
		{"serve_step_slot", serveOp},
		{"nn_forward1", func(testing.TB) func() {
			m, x := hotBenchNet()
			return warmOnce(func() { m.Forward1(x) })
		}},
		{"geo_station_lookup", func(testing.TB) func() {
			idx, queries := hotBenchIndex()
			i := 0
			return warmOnce(func() {
				benchNeighborSink = stationLookup(idx, queries[i%len(queries)], sim.KStations)
				i++
			})
		}},
		{"serve_parse_batch", func(tb testing.TB) func() {
			body := hotBenchIngestBody(tb)
			return warmOnce(func() {
				if _, err := serve.ParseBatch(body, serve.DefaultMaxBatch); err != nil {
					tb.Fatal(err)
				}
			})
		}},
	}
}

// warmOnce runs op once, growing whatever it keeps for reuse, and returns
// it.
func warmOnce(op func()) func() {
	op()
	return op
}

// hotBenchVacant returns env's vacant taxis, failing when there are none.
func hotBenchVacant(tb testing.TB, env sim.Environment) []int {
	ids := env.VacantTaxis()
	if len(ids) == 0 {
		tb.Fatal("no vacant taxis at reset")
	}
	return ids
}

// hotBenchIngestBody is the first 256-event ingest body of the ground-truth
// feed recorded on the bench city: the NDJSON a feed client POSTs to
// /ingest, GPS fixes and trip requests mixed as the service receives them.
func hotBenchIngestBody(tb testing.TB) []byte {
	const batch = 256
	city := benchCity(tb)
	slots := (batch + len(city.Fleet) - 1) / len(city.Fleet)
	events := serve.RecordFeed(city, sim.DefaultOptions(1), 42, slots)
	if len(events) < batch {
		tb.Fatalf("recorded %d events, want at least %d", len(events), batch)
	}
	body, err := serve.EncodeBatch(events[:batch])
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// warmEpisodes runs two full episodes of p on a new engine of the bench
// city, growing the engine's and the policy's reusable buffers, and
// returns the engine.
func warmEpisodes(tb testing.TB, p policy.Policy) sim.Environment {
	env := sim.New(benchCity(tb), sim.DefaultOptions(1), 42)
	for ep := 0; ep < 2; ep++ {
		for r := policy.NewRunner(p, env, 42); !r.Done(); {
			r.StepSlot()
		}
	}
	return env
}

// runnerOp returns one policy.Runner.StepSlot as the operation: the decide
// path (VacantTaxis, Observe, Act, the decision record) plus the engine
// step. After warmEpisodes, the measured runner's first slot grows its own
// buffers; the operation starts a new runner when the episode is done. The
// policy's weights do not matter here: allocation counts are the same for
// any weights.
func runnerOp(tb testing.TB, p policy.Policy) func() {
	env := warmEpisodes(tb, p)
	r := policy.NewRunner(p, env, 42)
	return warmOnce(func() {
		if r.Done() {
			r = policy.NewRunner(p, env, 42)
		}
		r.StepSlot()
	})
}

// serveOp returns one served slot as the operation: StepSlots(ctx, 1) on a
// started server under the GT heuristic — the driver round trip, decide,
// the engine step beside the publisher, and the commit. After
// warmEpisodes, every server (each resets the same engine) serves
// History+1 slots before it is used, so the history window recycles its
// storage. The operation drains a server whose horizon ends and starts
// another; the last one is drained at cleanup.
func serveOp(tb testing.TB) func() {
	ctx := context.Background()
	gt := policy.NewGroundTruth()
	env := warmEpisodes(tb, gt)
	start := func() *serve.Server {
		srv, err := serve.New(serve.Config{Env: env, Policy: gt, Seed: 42})
		if err != nil {
			tb.Fatal(err)
		}
		srv.Start()
		if _, err := srv.StepSlots(ctx, serve.DefaultHistory+1); err != nil {
			tb.Fatal(err)
		}
		return srv
	}
	srv := start()
	tb.Cleanup(func() {
		if err := srv.Drain(ctx); err != nil {
			tb.Error(err)
		}
	})
	return func() {
		if srv.Done() {
			if err := srv.Drain(ctx); err != nil {
				tb.Fatal(err)
			}
			srv = start()
		}
		if _, err := srv.StepSlots(ctx, 1); err != nil {
			tb.Fatal(err)
		}
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

// BenchmarkHotpath runs the pinned set as sub-benchmarks, each timing b.N
// calls of its entry's operation:
//
//	go test -bench '^BenchmarkHotpath$' -benchmem -benchscale=full -run '^$' .
func BenchmarkHotpath(b *testing.B) {
	for _, hb := range hotpathSet() {
		b.Run(hb.name, func(b *testing.B) { benchOp(b, hb.setup(b)) })
	}
}

// --- allocation-regression gate (make alloc-gate) ---

var updateAllocFloors = flag.Bool("update-alloc-floors", false,
	"rewrite testdata/alloc_floors.json from the current measurements (make alloc-gate UPDATE=1)")

const allocFloorsPath = "testdata/alloc_floors.json"

// gateOps is how many operations the gate measures per entry, after the
// entry's warm-up. A stepping entry's run must fit in one episode at
// -benchscale=small (144 slots), so no episode restart falls inside it.
const gateOps = 50

// allocsPerOp runs op gateOps times and returns its heap allocations per
// operation, rounded down: the runtime.MemStats.Mallocs delta, the counter
// and the integer allocs/op testing.B reports. Rounding down keeps the
// floors of bodies that allocate now and then rather than per operation
// (the engine's station queues regrow after each Reset, and a served
// slot's action maps change size with the vacant set), while one more
// allocation per operation still reads one more. Unlike the testing
// package's AllocsPerRun it leaves GOMAXPROCS as it is, so the multi-block
// decide and the sharded engine run as they do in production.
func allocsPerOp(op func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range gateOps {
		op()
	}
	runtime.ReadMemStats(&after)
	return int64((after.Mallocs - before.Mallocs) / gateOps)
}

// TestAllocGate measures allocs/op of every pinned body — the hot-path set
// here plus the NN-layer set in bench_nn_test.go — over gateOps operations
// after its warm-up, and fails if any exceeds its recorded floor: the
// regression gate for the zero-allocation work. Floors are exact allocs/op
// at -benchscale=small (steady-state allocation counts do not depend on
// fleet size, so the gate stays cheap in ci). After a deliberate change,
// regenerate the floors with
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
	measured := map[string]int64{}
	for _, hb := range append(hotpathSet(), nnBenchSet()...) {
		t.Run(hb.name, func(t *testing.T) {
			got := allocsPerOp(hb.setup(t))
			measured[hb.name] = got
			t.Logf("%d allocs/op over %d ops", got, gateOps)
			if *updateAllocFloors {
				return
			}
			floor, ok := floors[hb.name]
			if !ok {
				t.Errorf("alloc-gate: %s has no recorded floor; run -update-alloc-floors", hb.name)
			} else if got > floor {
				t.Errorf("alloc-gate: %s allocates %d/op, floor is %d/op", hb.name, got, floor)
			}
		})
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
	}
}

// allocSink keeps TestAllocsPerOp's allocating operation's object on the heap.
var allocSink *[64]byte

// TestAllocsPerOp pins the gate's counter: an operation that allocates
// nothing reads 0, one that allocates one heap object per call reads 1,
// and the operations run at the caller's GOMAXPROCS.
func TestAllocsPerOp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	seen := procs
	if got := allocsPerOp(func() { seen = runtime.GOMAXPROCS(0) }); got != 0 {
		t.Errorf("non-allocating op reads %d allocs/op, want 0", got)
	}
	if seen != procs {
		t.Errorf("op ran at GOMAXPROCS %d, caller's is %d", seen, procs)
	}
	if got := allocsPerOp(func() { allocSink = new([64]byte) }); got != 1 {
		t.Errorf("one-allocation op reads %d allocs/op, want 1", got)
	}
	if runtime.GOMAXPROCS(0) != procs {
		t.Errorf("GOMAXPROCS %d after the run, was %d", runtime.GOMAXPROCS(0), procs)
	}
}
