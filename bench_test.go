package fairmove

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). The expensive
// part — building the synthetic city, training all six strategies, and
// running the comparison — happens once per process and is shared; each
// benchmark measures the (re)computation of its table or figure from the
// collected results and logs the regenerated content so that
// `go test -bench=. -benchmem` doubles as the report generator for
// EXPERIMENTS.md.
//
// Scale control:
//
//	go test -bench=.                 # small scale (seconds)
//	go test -bench=. -benchscale=default   # EXPERIMENTS.md scale (minutes)
//	go test -bench=. -benchscale=full      # the paper's 20,130-taxi fleet
import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

var benchScale = flag.String("benchscale", "small", "benchmark scale: small, default, full, or mega")

var (
	benchOnce   sync.Once
	benchBundle *report.Bundle
	benchErr    error
)

// benchSink prevents dead-code elimination of the measured formatting work.
var benchSink string

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
// engine stepping benchmarks (the report bundle has its own scale mapping).
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

func sharedBundle(b *testing.B) *report.Bundle {
	b.Helper()
	scaleName := resolveBenchScale(b)
	if scaleName == "mega" {
		// The mega tier exists for the engine stepping benchmarks only:
		// training all six strategies on a 200k fleet is not a benchmark,
		// it is a datacenter bill.
		b.Skip("report bundle benchmarks do not run at -benchscale=mega")
	}
	benchOnce.Do(func() {
		scale := report.ScaleSmall
		switch scaleName {
		case "default":
			scale = report.ScaleDefault
		case "full":
			scale = report.ScaleFull
		}
		cfg := report.DefaultConfig(42, scale)
		benchBundle, benchErr = report.RunFull(cfg, []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchBundle
}

// benchSection measures regenerating one report section and logs it once.
func benchSection(b *testing.B, f func() string) {
	b.Helper()
	bd := sharedBundle(b)
	_ = bd
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f()
	}
	b.StopTimer()
	b.Log("\n" + benchSink)
}

// --- Data-driven findings (Section II-C) ---

func BenchmarkFig3ChargingTime(b *testing.B) { benchSection(b, sharedBundle(b).Fig3) }

func BenchmarkFig4ChargingPeaks(b *testing.B) { benchSection(b, sharedBundle(b).Fig4) }

func BenchmarkFig5FirstCruiseCDF(b *testing.B) { benchSection(b, sharedBundle(b).Fig5) }

func BenchmarkFig6FirstCruiseByStation(b *testing.B) { benchSection(b, sharedBundle(b).Fig6) }

func BenchmarkFig7RevenueHeatmap(b *testing.B) { benchSection(b, sharedBundle(b).Fig7) }

func BenchmarkFig8ProfitInequality(b *testing.B) { benchSection(b, sharedBundle(b).Fig8) }

// --- Displacement comparison (Section IV-B) ---

func BenchmarkFig10CruiseDistByMethod(b *testing.B) { benchSection(b, sharedBundle(b).Fig10) }

func BenchmarkFig11PRCTByHour(b *testing.B) { benchSection(b, sharedBundle(b).Fig11) }

func BenchmarkTable2PRCT(b *testing.B) { benchSection(b, sharedBundle(b).Table2) }

func BenchmarkFig12IdleDistByMethod(b *testing.B) { benchSection(b, sharedBundle(b).Fig12) }

func BenchmarkFig13PRITByHour(b *testing.B) { benchSection(b, sharedBundle(b).Fig13) }

func BenchmarkTable3PRIT(b *testing.B) { benchSection(b, sharedBundle(b).Table3) }

func BenchmarkFig14PEDistByMethod(b *testing.B) { benchSection(b, sharedBundle(b).Fig14) }

func BenchmarkFig15PIPE(b *testing.B) { benchSection(b, sharedBundle(b).Fig15) }

func BenchmarkFig16PIPF(b *testing.B) { benchSection(b, sharedBundle(b).Fig16) }

func BenchmarkTable4AlphaSweep(b *testing.B) { benchSection(b, sharedBundle(b).Table4) }

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationStationChoice(b *testing.B) {
	benchSection(b, func() string {
		bd := sharedBundle(b)
		return bd.FormatAblations()
	})
}

func BenchmarkAblationForecast(b *testing.B) {
	benchSection(b, func() string {
		bd := sharedBundle(b)
		return bd.FormatAblations()
	})
}

// BenchmarkHeadlineComparison regenerates the summary table of all methods.
func BenchmarkHeadlineComparison(b *testing.B) {
	benchSection(b, sharedBundle(b).FormatComparisonSummary)
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

// benchStepSlots reports ns per simulated slot: each iteration is one
// Step(nil), with episode resets excluded from the timer.
func benchStepSlots(b *testing.B, env sim.Environment) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env.Done() {
			b.StopTimer()
			env.Reset(42)
			b.StartTimer()
		}
		env.Step(nil)
	}
}

// BenchmarkEngineStepSharded steps the simulator across the shard ladder.
// Higher counts add barrier overhead and (on multi-core hosts) concurrency.
func BenchmarkEngineStepSharded(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			benchStepSlots(b, sim.New(benchCity(b), policy.EpisodeOptions(1, k), 42))
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
