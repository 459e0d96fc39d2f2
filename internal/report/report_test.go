package report

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fairmove "repro"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// smallBundle runs the full pipeline once at test scale and is shared by
// the formatting tests.
var smallBundle *Bundle

func bundle(t *testing.T) *Bundle {
	t.Helper()
	if testing.Short() {
		t.Skip("full report pipeline; skipped in short mode")
	}
	if smallBundle != nil {
		return smallBundle
	}
	// Telemetry on: the shared bundle doubles as coverage that metrics
	// collection rides through the whole pipeline without changing it.
	cfg := DefaultConfig(1, ScaleSmall).WithTelemetry(telemetry.NewRegistry())
	b, err := RunFull(cfg, []float64{0, 0.6, 1})
	if err != nil {
		t.Fatal(err)
	}
	smallBundle = b
	return b
}

func TestRunProducesAllMethods(t *testing.T) {
	b := bundle(t)
	for _, m := range fairmove.Methods() {
		res, ok := b.Results[m]
		if !ok {
			t.Fatalf("method %s missing", m)
		}
		if res.ServedRequests == 0 {
			t.Fatalf("method %s served nothing", m)
		}
	}
}

func TestGTOnlyBundleFormatsDataFigures(t *testing.T) {
	b, err := RunGTOnly(DefaultConfig(2, ScaleSmall))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func() string{
		"Fig3": b.Fig3, "Fig4": b.Fig4, "Fig5": b.Fig5,
		"Fig6": b.Fig6, "Fig7": b.Fig7, "Fig8": b.Fig8,
	} {
		out := f()
		if !strings.Contains(out, "Fig.") {
			t.Errorf("%s output missing header: %q", name, out)
		}
		if strings.Contains(out, "%!") {
			t.Errorf("%s has formatting error: %q", name, out)
		}
	}
}

func TestComparisonFiguresFormat(t *testing.T) {
	b := bundle(t)
	sections := map[string]func() string{
		"Fig10": b.Fig10, "Fig11": b.Fig11, "Fig12": b.Fig12,
		"Fig13": b.Fig13, "Fig14": b.Fig14, "Fig15": b.Fig15, "Fig16": b.Fig16,
		"Table2": b.Table2, "Table3": b.Table3, "Table4": b.Table4,
	}
	for name, f := range sections {
		out := f()
		if len(out) == 0 {
			t.Errorf("%s empty", name)
		}
		if strings.Contains(out, "%!") {
			t.Errorf("%s has formatting error: %q", name, out)
		}
		if !strings.Contains(out, "FairMove") && name != "Table4" {
			t.Errorf("%s missing FairMove row: %q", name, out)
		}
	}
}

func TestAlphaSweepPopulatesTable4(t *testing.T) {
	b := bundle(t)
	if len(b.Alpha) != 3 {
		t.Fatalf("sweep shape: %+v", b.Alpha)
	}
	if b.Alpha[0].Alpha != 0 || b.Alpha[2].Alpha != 1 {
		t.Fatalf("alphas not sorted: %+v", b.Alpha)
	}
	out := b.Table4()
	if !strings.Contains(out, "α=0.6") {
		t.Fatalf("Table4 missing swept α: %q", out)
	}
}

func TestAblationsPresent(t *testing.T) {
	b := bundle(t)
	for _, name := range []string{
		"Coordinator", "Coordinator-NoFair", "Coordinator-NearestOnly", "FairMove-NoForecast",
	} {
		if _, ok := b.Ablations[name]; !ok {
			t.Errorf("ablation %s missing", name)
		}
	}
	out := b.FormatAblations()
	if !strings.Contains(out, "Coordinator-NoFair") {
		t.Fatalf("ablation report incomplete: %q", out)
	}
}

// The SHA-256 pins of the report's bytes. A change that moves any number of
// the report re-pins these by hand and says so in its description.
const (
	goldenFormatAllSHA256      = "06dea52b332daecfc7be1612554cb71bde0fc0e1c6718138002f1818108228a1"
	goldenBlackoutDeltasSHA256 = "d0143b7a6d97fc46bf0bbbb1d5f3411bcc687174e57688eb03399493268baeba"
)

func TestFormatAllComplete(t *testing.T) {
	b := bundle(t)
	out := b.FormatAll()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != goldenFormatAllSHA256 {
		t.Errorf("report bytes changed: sha256 %s, pinned %s", got, goldenFormatAllSHA256)
	}
	for _, want := range []string{
		"Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
		"Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16",
		"Table II", "Table III", "Table IV", "Ablations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatAll missing section %q", want)
		}
	}
}

func TestRunScenariosProducesGrid(t *testing.T) {
	b := bundle(t)
	outage, err := scenario.NewBuilder("station-outage").
		StationOutage(0, 0, 24*60).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	surge, err := scenario.NewBuilder("demand-surge").
		DemandSurge(-1, 7*60, 10*60, 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RunScenarios([]*scenario.Spec{outage, surge}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"station-outage", "demand-surge"} {
		row, ok := b.Scenarios[name]
		if !ok {
			t.Fatalf("scenario %s missing from grid", name)
		}
		for _, m := range fairmove.Methods() {
			if _, ok := row[m]; !ok {
				t.Fatalf("scenario %s missing method %s", name, m)
			}
		}
	}
	out := b.FormatScenarioDeltas()
	for _, want := range []string{"scenario station-outage", "scenario demand-surge", "FairMove", "PE", "PF", "Fsp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scenario report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "%!") {
		t.Fatalf("scenario report has formatting error:\n%s", out)
	}
}

// A scenario from the extended zoo (weather + airport surge) must flow
// through the grid, and the delta table must carry the spatial-fairness
// column next to PE/PF for it — the rider-side view of a fault that drags
// the fleet toward one region.
func TestRunScenariosExtendedZooSpatialColumn(t *testing.T) {
	b := bundle(t)
	storm, err := scenario.NewBuilder("airport-storm").
		Weather(-1, 6*60, 12*60, 0.7).
		AirportSurge(0, 6*60, 10*60, 2.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RunScenarios([]*scenario.Spec{storm}); err != nil {
		t.Fatal(err)
	}
	out := b.FormatScenarioDeltas()
	if !strings.Contains(out, "scenario airport-storm") || !strings.Contains(out, "Fsp") {
		t.Fatalf("extended-zoo scenario missing spatial column:\n%s", out)
	}
	if strings.Contains(out, "%!") || strings.Contains(out, "NaN") {
		t.Fatalf("spatial deltas format badly:\n%s", out)
	}
	// The clean-run comparison summary carries F_spatial too.
	if sum := b.FormatComparisonSummary(); !strings.Contains(sum, "Fsp") {
		t.Fatalf("comparison summary missing Fsp:\n%s", sum)
	}
}

// blackoutSpec closes every station and silences demand for the whole
// horizon — the zero-charge/zero-trip worst case that used to panic inside
// stats.Percentile when the report asked for medians of empty series.
func blackoutSpec(t *testing.T, stations, horizonMin int) *scenario.Spec {
	t.Helper()
	b := scenario.NewBuilder("total-blackout")
	for s := 0; s < stations; s++ {
		b.StationOutage(s, 0, horizonMin)
	}
	b.DemandScale(-1, 0, horizonMin, 0)
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The headline bugfix regression: a full GT report under total blackout must
// complete — every figure formats, no median/percentile panics, no NaN/Inf
// format escapes — and the telemetry snapshot must explain the silence.
func TestGTOnlyBlackoutScenarioNoPanic(t *testing.T) {
	cfg := DefaultConfig(4, ScaleSmall).WithTelemetry(telemetry.NewRegistry())
	horizon := (cfg.Days + cfg.EvalWarmupDays) * 24 * 60
	cfg.Scenario = blackoutSpec(t, cfg.Stations, horizon)
	b, err := RunGTOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func() string{
		"Fig3": b.Fig3, "Fig4": b.Fig4, "Fig5": b.Fig5,
		"Fig6": b.Fig6, "Fig7": b.Fig7, "Fig8": b.Fig8,
	} {
		out := f()
		if strings.Contains(out, "%!") || strings.Contains(out, "NaN") {
			t.Errorf("%s formats badly under blackout: %q", name, out)
		}
	}
	res := b.Results["GT"]
	if res.ServedRequests != 0 || len(res.ChargeStats) != 0 {
		t.Fatalf("blackout leaked activity: served=%d charges=%d",
			res.ServedRequests, len(res.ChargeStats))
	}
	snap, ok := b.Telemetry["GT"]
	if !ok {
		t.Fatal("telemetry snapshot missing for GT")
	}
	if snap.Counters["sim.slots"] == 0 {
		t.Fatal("telemetry recorded no simulated slots")
	}
	if snap.Counters["sim.matches"] != 0 || snap.Counters["sim.charge_sessions"] != 0 {
		t.Fatalf("telemetry contradicts blackout: %v", snap.Counters)
	}
	if out := b.FormatTelemetry(); !strings.Contains(out, "GT") || !strings.Contains(out, "sim.slots") {
		t.Fatalf("FormatTelemetry incomplete: %q", out)
	}
}

// The same blackout through the comparison pipeline: every trained method
// re-evaluated under zero charges and zero trips, with per-cell telemetry
// explaining the deltas.
func TestRunScenariosBlackoutNoPanic(t *testing.T) {
	// A private copy of the shared bundle's scenario grid keeps the pinned
	// delta table independent of which scenario tests ran before.
	b := *bundle(t)
	b.Scenarios, b.ScenarioOrder, b.ScenarioTelemetry = nil, nil, nil
	horizon := (b.Config.Days + b.Config.EvalWarmupDays) * 24 * 60
	spec := blackoutSpec(t, b.Config.Stations, horizon)
	if err := b.RunScenarios([]*scenario.Spec{spec}); err != nil {
		t.Fatal(err)
	}
	for _, m := range fairmove.Methods() {
		res, ok := b.Scenarios["total-blackout"][m]
		if !ok {
			t.Fatalf("method %s missing from blackout grid", m)
		}
		if res.ServedRequests != 0 {
			t.Fatalf("method %s served %d requests under blackout", m, res.ServedRequests)
		}
	}
	out := b.FormatScenarioDeltas()
	if !strings.Contains(out, "total-blackout") {
		t.Fatalf("deltas missing blackout row:\n%s", out)
	}
	if strings.Contains(out, "%!") || strings.Contains(out, "NaN") {
		t.Fatalf("blackout deltas format badly:\n%s", out)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != goldenBlackoutDeltasSHA256 {
		t.Fatalf("blackout delta table changed: sha256 %s, pinned %s\n%s", got, goldenBlackoutDeltasSHA256, out)
	}
	row, ok := b.ScenarioTelemetry["total-blackout"]
	if !ok {
		t.Fatal("scenario telemetry missing")
	}
	for _, m := range fairmove.Methods() {
		if row[m].Counters["sim.matches"] != 0 {
			t.Fatalf("method %s telemetry shows matches under blackout", m)
		}
	}
	if tl := b.FormatTelemetry(); !strings.Contains(tl, "scenario total-blackout") {
		t.Fatalf("FormatTelemetry missing scenario section:\n%s", tl)
	}
}

// A missing or corrupt checkpoint behind -policy fails the run with the
// wrapped load error before any training starts.
func TestRunRejectsBadPolicyPath(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "corrupt.fmck")
	if err := os.WriteFile(corrupt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(t.TempDir(), "missing.fmck"), corrupt} {
		cfg := DefaultConfig(1, ScaleSmall)
		cfg.PolicyPath = path
		if b, err := Run(cfg); err == nil || b != nil {
			t.Fatalf("Run with policy %s = %v, %v; want an error", path, b, err)
		} else if !strings.Contains(err.Error(), "load policy") {
			t.Fatalf("Run with policy %s: error %q does not name the load", path, err)
		}
	}
}

func TestRunScenariosRejectsUntrainedBundle(t *testing.T) {
	empty := &Bundle{Config: DefaultConfig(1, ScaleSmall)}
	spec, err := scenario.NewBuilder("x").StationOutage(0, 0, 10).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.RunScenarios([]*scenario.Spec{spec}); err == nil {
		t.Fatal("RunScenarios accepted a bundle without trained policies")
	}
}

func TestScaleConfigs(t *testing.T) {
	small := DefaultConfig(1, ScaleSmall)
	def := DefaultConfig(1, ScaleDefault)
	full := DefaultConfig(1, ScaleFull)
	if small.Fleet >= def.Fleet || def.Fleet >= full.Fleet {
		t.Fatalf("scales not increasing: %d %d %d", small.Fleet, def.Fleet, full.Fleet)
	}
	if full.Fleet != 20130 {
		t.Fatalf("full scale fleet = %d, want paper's 20130", full.Fleet)
	}
	if def.Config != fairmove.DefaultConfig(1) {
		t.Fatalf("default scale %+v is not the facade default", def.Config)
	}
}

func TestFmtHourSeries(t *testing.T) {
	var s [24]float64
	for i := range s {
		s[i] = float64(i)
	}
	out := fmtHourSeries(s)
	if !strings.Contains(out, "00h:") || !strings.Contains(out, "20h:") {
		t.Fatalf("series format wrong: %q", out)
	}
}
