package shard_test

// The shard-invariance battery: the tentpole's correctness proof. A sharded
// run must be a pure function of (city, options, seed) — never of the shard
// count — so every test here runs the same world at several K and demands
// byte-identical results: trace digests, telemetry counters, accounting.

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// invarianceSeed fixes the worlds in this file.
const invarianceSeed = 42

// shardCounts is the ladder every invariance test climbs.
var shardCounts = []int{1, 2, 4, 8}

// goldenFixtures are the scenario specs pinned by the golden-trace harness;
// the sharded engine must be K-invariant under every one of them.
var goldenFixtures = []string{"baseline", "station-outage", "demand-surge", "weather", "airport-surge"}

func loadFixture(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(filepath.Join("..", "scenario", "testdata", "scenarios", name+".json"))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return spec
}

func microCity(t *testing.T, seed int64) *synth.City {
	t.Helper()
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatalf("build city: %v", err)
	}
	// Start near the forced-charge threshold so stations, queues, and the
	// whole charging pipeline cross shard cuts from the first slot.
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.3
	}
	return city
}

// newEnv builds a one-day simulator over city at the given shard count.
func newEnv(t *testing.T, city *synth.City, shards int, seed int64) *sim.Core {
	t.Helper()
	opts := sim.DefaultOptions(1)
	opts.Shards = shards
	env := sim.New(city, opts, seed)
	if env.Shards() != shards {
		t.Fatalf("built %d shards, want %d", env.Shards(), shards)
	}
	return env
}

// shardRun replays one full day at the given shard count and returns the
// event digest, the deterministic telemetry counters, and the results.
func shardRun(t *testing.T, city *synth.City, spec *scenario.Spec, shards int) (string, map[string]int64, *sim.Results) {
	t.Helper()
	env := newEnv(t, city, shards, invarianceSeed)
	var events []trace.Event
	env.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
	reg := telemetry.NewRegistry()
	env.SetTelemetry(reg)
	if spec != nil {
		if _, err := scenario.Attach(env, spec); err != nil {
			t.Fatalf("attach: %v", err)
		}
	}
	env.Reset(invarianceSeed)
	for !env.Done() {
		env.Step(nil)
	}
	return trace.DigestEvents(events), reg.Snapshot().Counters, env.Results()
}

// TestShardInvarianceGoldenFixtures is the acceptance gate: for every golden
// scenario fixture (plus the unperturbed world), shards=1 and shards=N
// produce identical trace digests, telemetry counters, and headline
// accounting.
func TestShardInvarianceGoldenFixtures(t *testing.T) {
	specs := map[string]*scenario.Spec{"clean": nil}
	for _, name := range goldenFixtures {
		specs[name] = loadFixture(t, name)
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			city := microCity(t, invarianceSeed)
			refDigest, refCounters, refRes := shardRun(t, city, spec, 1)
			for _, k := range shardCounts[1:] {
				digest, counters, res := shardRun(t, city, spec, k)
				if digest != refDigest {
					t.Errorf("shards=%d: digest %s != shards=1 digest %s", k, digest, refDigest)
				}
				for cname, want := range refCounters {
					if got := counters[cname]; got != want {
						t.Errorf("shards=%d: counter %s = %d, want %d", k, cname, got, want)
					}
				}
				if res.ServedRequests != refRes.ServedRequests || res.UnservedRequests != refRes.UnservedRequests {
					t.Errorf("shards=%d: served/unserved %d/%d, want %d/%d",
						k, res.ServedRequests, res.UnservedRequests, refRes.ServedRequests, refRes.UnservedRequests)
				}
				if got, want := res.FleetProfit(), refRes.FleetProfit(); got != want {
					t.Errorf("shards=%d: fleet profit %v, want %v", k, got, want)
				}
				if len(res.TripStats) != len(refRes.TripStats) {
					t.Fatalf("shards=%d: %d trips, want %d", k, len(res.TripStats), len(refRes.TripStats))
				}
				for i := range res.TripStats {
					if res.TripStats[i] != refRes.TripStats[i] {
						t.Fatalf("shards=%d: trip %d = %+v, want %+v", k, i, res.TripStats[i], refRes.TripStats[i])
					}
				}
				for i := range res.ChargeStats {
					if res.ChargeStats[i] != refRes.ChargeStats[i] {
						t.Fatalf("shards=%d: charge %d = %+v, want %+v", k, i, res.ChargeStats[i], refRes.ChargeStats[i])
					}
				}
			}
		})
	}
}

// TestShardSmoke is the short-mode CI gate (make shard-smoke): one clean
// micro-city day at shards=2 must match shards=1 digest-for-digest.
func TestShardSmoke(t *testing.T) {
	city := microCity(t, invarianceSeed)
	ref, _, _ := shardRun(t, city, nil, 1)
	got, _, _ := shardRun(t, city, nil, 2)
	if got != ref {
		t.Fatalf("shards=2 digest %s != shards=1 digest %s", got, ref)
	}
}

// TestAssignCoversPartition checks the BFS assignment is a total, clamped,
// deterministic cover of the region graph.
func TestAssignCoversPartition(t *testing.T) {
	city := microCity(t, invarianceSeed)
	for _, k := range []int{1, 2, 3, 5, 8, 12, 100} {
		owner := shard.Assign(city.Partition, k)
		if len(owner) != city.Partition.Len() {
			t.Fatalf("k=%d: %d assignments for %d regions", k, len(owner), city.Partition.Len())
		}
		wantK := k
		if wantK > city.Partition.Len() {
			wantK = city.Partition.Len()
		}
		seen := make(map[int]int)
		for r, o := range owner {
			if o < 0 || o >= wantK {
				t.Fatalf("k=%d: region %d owner %d out of range [0,%d)", k, r, o, wantK)
			}
			seen[o]++
		}
		if len(seen) != wantK {
			t.Errorf("k=%d: only %d of %d shards own regions", k, len(seen), wantK)
		}
		again := shard.Assign(city.Partition, k)
		for r := range owner {
			if owner[r] != again[r] {
				t.Fatalf("k=%d: assignment not deterministic at region %d", k, r)
			}
		}
	}
}

// TestShardHandoffProperties randomizes partition cuts (via the seed-driven
// city) and fleet sizes, then checks after every slot that no taxi is
// duplicated or lost across a barrier, and at the horizon that energy is
// conserved per taxi and every request was matched by at most one shard.
func TestShardHandoffProperties(t *testing.T) {
	cases := []struct {
		seed   int64
		fleet  int
		shards int
	}{
		{7, 16, 2}, {7, 16, 3}, {11, 24, 4}, {13, 40, 5}, {17, 64, 8},
	}
	for _, tc := range cases {
		cfg := synth.MicroConfig(tc.seed)
		cfg.Fleet = tc.fleet
		cfg.TripsPerDay = 10 * tc.fleet
		city, err := synth.Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: build: %v", tc.seed, err)
		}
		for i := range city.Fleet {
			city.Fleet[i].InitialSoC = 0.3
		}
		env := newEnv(t, city, tc.shards, tc.seed)

		initial := make([]float64, cfg.Fleet)
		for i := 0; i < cfg.Fleet; i++ {
			initial[i] = env.TaxiEnergyLedger(i).SoCKWh
		}

		for !env.Done() {
			env.Step(nil)
			if err := env.CheckInvariants(); err != nil {
				t.Fatalf("seed %d shards %d minute %d: %v", tc.seed, tc.shards, env.Now(), err)
			}
		}

		// Energy conservation: SoC = initial + charged − consumed, where the
		// deficit credits energy an empty pack could not actually spend.
		for i := 0; i < cfg.Fleet; i++ {
			l := env.TaxiEnergyLedger(i)
			want := initial[i] + l.ChargedKWh - (l.DrivenKm*l.ConsumptionPerKm - l.DeficitKWh)
			if diff := math.Abs(l.SoCKWh - want); diff > 1e-6*math.Max(1, l.CapacityKWh) {
				t.Errorf("seed %d shards %d taxi %d: SoC %.9f kWh, ledger says %.9f (drift %.3g)",
					tc.seed, tc.shards, i, l.SoCKWh, want, diff)
			}
		}

		// Request ledger: every sampled request was served once, expired
		// once, or is still pending — never matched by two shards, never
		// dropped at a handoff.
		res := env.Results()
		if got := res.ServedRequests + res.UnservedRequests; got != env.GeneratedRequests() {
			t.Errorf("seed %d shards %d: served %d + unserved %d = %d, want %d generated",
				tc.seed, tc.shards, res.ServedRequests, res.UnservedRequests, got, env.GeneratedRequests())
		}
		if env.PendingRequests() != 0 {
			t.Errorf("seed %d shards %d: %d requests still pending after finalize", tc.seed, tc.shards, env.PendingRequests())
		}
	}
}

// TestShardResultsMatchAcrossSeeds widens the invariance net beyond the
// golden seed: several worlds, each compared shards=1 vs shards=3.
func TestShardResultsMatchAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := synth.MicroConfig(seed)
		city, err := synth.Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range city.Fleet {
			city.Fleet[i].InitialSoC = 0.3
		}
		run := func(shards int) string {
			env := newEnv(t, city, shards, seed)
			var events []trace.Event
			env.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
			env.Reset(seed)
			for !env.Done() {
				env.Step(nil)
			}
			return trace.DigestEvents(events)
		}
		if a, b := run(1), run(3); a != b {
			t.Errorf("seed %d: shards=1 digest %s != shards=3 digest %s", seed, a, b)
		}
	}
}
