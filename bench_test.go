package fairmove

// Engine-stepping and CompareAll benchmarks. The paper's tables and
// figures are printed by cmd/benchtab, not timed here.
//
// Scale control:
//
//	go test -bench=.                       # small scale (seconds)
//	go test -bench=. -benchscale=default   # EXPERIMENTS.md scale (minutes)
//	go test -bench=. -benchscale=full      # the paper's 20,130-taxi fleet
//	go test -bench=. -benchscale=mega      # 10× the paper's fleet (engine stepping only)
import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

var benchScale = flag.String("benchscale", "small", "benchmark scale: small, default, full, or mega")

// resolveBenchScale validates -benchscale and fails loudly on anything
// outside the known ladder — a typo must not silently fall back to small.
func resolveBenchScale(tb testing.TB) string {
	tb.Helper()
	switch *benchScale {
	case "small", "default", "full", "mega":
		return *benchScale
	}
	tb.Fatalf("unknown -benchscale %q: want small, default, full, or mega", *benchScale)
	return ""
}

// benchCityConfig maps the validated scale to a synthetic-city size for the
// engine stepping benchmarks.
func benchCityConfig(tb testing.TB) synth.Config {
	switch resolveBenchScale(tb) {
	case "default":
		return synth.DefaultConfig(42)
	case "full":
		return synth.FullScaleConfig(42)
	case "mega":
		return synth.MegaScaleConfig(42)
	default:
		return synth.TestConfig(42)
	}
}

// --- Engine stepping (the sharding tentpole) ---

var (
	benchCityMu sync.Mutex
	benchCities = map[string]*synth.City{}
)

// benchCity builds (once per scale, shared across benchmarks) the stepping
// city for the current -benchscale.
func benchCity(tb testing.TB) *synth.City {
	cfg := benchCityConfig(tb)
	name := resolveBenchScale(tb)
	benchCityMu.Lock()
	defer benchCityMu.Unlock()
	if c, ok := benchCities[name]; ok {
		return c
	}
	city, err := synth.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	benchCities[name] = city
	return city
}

// stepOp returns one Step(nil) of env as the operation. It first steps two
// full episodes and resets: every reusable buffer reaches its high-water
// mark, and the measured episode shows, to whole allocs/op, that Reset
// keeps it (a Reset that dropped working storage would re-pay growth). The
// operation resets env when the episode is done, so a timed loop of it
// includes that cost.
func stepOp(env sim.Environment) func() {
	for ep := 0; ep < 2; ep++ {
		for !env.Done() {
			env.Step(nil)
		}
		env.Reset(42)
	}
	return func() {
		if env.Done() {
			env.Reset(42)
		}
		env.Step(nil)
	}
}

// benchOp times b.N calls of op, built and warmed up outside the timer.
func benchOp(b *testing.B, op func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkEngineStepSharded steps the simulator across the shard ladder.
// Higher counts add barrier overhead and (on multi-core hosts) concurrency.
func BenchmarkEngineStepSharded(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			benchOp(b, stepOp(sim.New(benchCity(b), policy.EpisodeOptions(1, k), 42)))
		})
	}
}

// --- Telemetry overhead ---

// The pair below measures the same CompareAll re-evaluation (policies are
// trained once, outside the timer) with instrumentation off and on. The
// contract is <5% wall-clock overhead: disabled telemetry is nil-handle
// no-ops, enabled telemetry is pre-resolved atomic adds on the slot path.
func BenchmarkCompareAllNoTelemetry(b *testing.B)   { benchCompareAll(b, false) }
func BenchmarkCompareAllWithTelemetry(b *testing.B) { benchCompareAll(b, true) }

func benchCompareAll(b *testing.B, tel bool) {
	s, err := NewSystem(microConfig(11, 0))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.CompareAll(); err != nil { // train and warm the policy cache
		b.Fatal(err)
	}
	if tel {
		s.SetTelemetry(telemetry.NewRegistry())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CompareAll(); err != nil {
			b.Fatal(err)
		}
	}
}
