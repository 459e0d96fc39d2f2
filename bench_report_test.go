package fairmove_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). The expensive
// part — building the synthetic city, training all six strategies, and
// running the comparison — happens once per process and is shared; each
// benchmark measures the (re)computation of its table or figure from the
// collected results and logs the regenerated content so that
// `go test -bench=. -benchmem` doubles as the report generator for
// EXPERIMENTS.md. The report package is built on the facade, so these
// benchmarks live in the external test package; they read the
// -benchscale flag that bench_test.go defines.
import (
	"flag"
	"sync"
	"testing"

	"repro/internal/report"
)

var (
	benchOnce   sync.Once
	benchBundle *report.Bundle
	benchErr    error
)

// benchSink prevents dead-code elimination of the measured formatting work.
var benchSink string

func sharedBundle(b *testing.B) *report.Bundle {
	b.Helper()
	var scale report.Scale
	switch name := flag.Lookup("benchscale").Value.String(); name {
	case "small":
		scale = report.ScaleSmall
	case "default":
		scale = report.ScaleDefault
	case "full":
		scale = report.ScaleFull
	case "mega":
		// The mega tier exists for the engine stepping benchmarks only:
		// training all six strategies on a 200k fleet is not a benchmark,
		// it is a datacenter bill.
		b.Skip("report bundle benchmarks do not run at -benchscale=mega")
	default:
		b.Fatalf("unknown -benchscale %q: want small, default, full, or mega", name)
	}
	benchOnce.Do(func() {
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

func BenchmarkAblationStationChoice(b *testing.B) { benchSection(b, sharedBundle(b).FormatAblations) }

func BenchmarkAblationForecast(b *testing.B) { benchSection(b, sharedBundle(b).FormatAblations) }

// BenchmarkHeadlineComparison regenerates the summary table of all methods.
func BenchmarkHeadlineComparison(b *testing.B) {
	benchSection(b, sharedBundle(b).FormatComparisonSummary)
}
