// Package report formats the paper's evaluation (Section IV) as text:
// every table and figure, the design-choice ablations, scenario-conditioned
// grids, and per-method telemetry. The experiment protocol itself — the six
// strategies trained teacher-first, the evaluation environment, the α sweep
// and the versus-ground-truth row — belongs to the fairmove facade: a Bundle
// drives one fairmove.System and keeps what it measured. Both the benchtab
// command and the root report benchmarks run it, so the same code path
// produces the human-readable report and the benchmark measurements.
//
// Experiment index (see DESIGN.md §4): Figs. 3-8 are the data-driven
// findings computed from a ground-truth run; Figs. 10-16 and Tables II-III
// compare the six displacement strategies on identical demand; Table IV
// sweeps the fairness weight α.
package report

import (
	"fmt"
	"sort"
	"strings"

	fairmove "repro"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Scale selects the experiment size.
type Scale int

// Experiment scales.
const (
	// ScaleSmall is for unit tests and quick smoke runs (seconds).
	ScaleSmall Scale = iota
	// ScaleDefault is the benchmark scale used in EXPERIMENTS.md (minutes).
	ScaleDefault
	// ScaleFull is the paper's full fleet (hours; -full runs only).
	ScaleFull
)

// Config sizes one report run: the facade configuration (city, protocol,
// workers) plus what only the report adds.
type Config struct {
	fairmove.Config
	// Telemetry, when non-nil, aggregates metrics from every training and
	// evaluation run into the registry (the CLIs pass theirs for periodic
	// dumps) and captures a per-method snapshot in Bundle.Telemetry /
	// Bundle.ScenarioTelemetry. Each evaluation uses its own short-lived
	// registry so concurrent methods don't mix, then merges into this one.
	// Telemetry is write-only — nothing reads a metric back into the run —
	// so enabling it never changes results.
	Telemetry *telemetry.Registry
	// Scenario, when non-nil, conditions every evaluation with the fault
	// schedule (the -scenario flag of benchtab's gt-only mode). Run and
	// RunGTOnly validate it against the city.
	Scenario *scenario.Spec
	// PolicyPath, when non-empty, warm-starts FairMove from a checkpoint
	// file (benchtab's -policy flag) instead of training it, so comparison
	// grids and scenario sweeps reload a trained artifact rather than pay
	// the training cost per run. The checkpoint must have been written under
	// the same core configuration (seed, α, hyperparameters); a missing,
	// corrupt or mismatched file fails Run before any training starts.
	PolicyPath string
}

// WithTelemetry returns a copy of the Config with the registry installed.
func (c Config) WithTelemetry(r *telemetry.Registry) Config {
	c.Telemetry = r
	return c
}

// DefaultConfig returns the configuration for a scale: the facade default
// (300 taxis, 75 regions) at ScaleDefault, a 120-taxi one-day city trained
// one episode per phase at ScaleSmall, and the paper's city at ScaleFull.
func DefaultConfig(seed int64, scale Scale) Config {
	c := fairmove.DefaultConfig(seed)
	switch scale {
	case ScaleSmall:
		c.Regions, c.Stations, c.Fleet = 40, 10, 120
		c.Days, c.PretrainEpisodes, c.TrainEpisodes = 1, 1, 1
	case ScaleFull:
		full := synth.FullScaleConfig(seed)
		c.Regions, c.Stations, c.Fleet = full.Regions, full.Stations, full.Fleet
		c.TripsPerDay, c.SlotMinutes = full.TripsPerDay, full.SlotMinutes
	}
	return Config{Config: c}
}

// Bundle holds everything needed to print the full report.
type Bundle struct {
	// Config is the run's configuration, its facade part default-filled.
	Config  Config
	Results map[fairmove.Method]*sim.Results
	// Alpha holds the swept points of Table IV, in ascending α. Populated
	// by RunAlphaSweep.
	Alpha []fairmove.AlphaPoint
	// Ablations maps ablation names to results (populated by RunAblations).
	Ablations map[string]*sim.Results

	// Scenarios maps scenario name → method → results under that fault
	// schedule, and ScenarioOrder preserves run order for formatting.
	// Populated by RunScenarios.
	Scenarios     map[string]map[fairmove.Method]*sim.Results
	ScenarioOrder []string

	// Telemetry maps method → the simulation-counter snapshot of its clean
	// evaluation; ScenarioTelemetry adds the same per scenario. Populated
	// only when Config.Telemetry is set; FormatTelemetry prints both and
	// diffs each scenario cell against the method's clean run.
	Telemetry         map[fairmove.Method]telemetry.Snapshot
	ScenarioTelemetry map[string]map[fairmove.Method]telemetry.Snapshot

	// sys owns the city and the trained policies, so ablations and
	// scenario runs re-evaluate the same policies under modified
	// environments.
	sys *fairmove.System
}

// newBundle builds the facade system a report run evaluates on.
func newBundle(cfg Config) (*Bundle, error) {
	sys, err := fairmove.NewSystem(cfg.Config)
	if err != nil {
		return nil, err
	}
	if err := sys.SetScenario(cfg.Scenario); err != nil {
		return nil, err
	}
	sys.SetTelemetry(cfg.Telemetry)
	cfg.Config = sys.Config()
	return &Bundle{
		Config:    cfg,
		Results:   make(map[fairmove.Method]*sim.Results),
		Ablations: make(map[string]*sim.Results),
		sys:       sys,
	}, nil
}

// evalCell pairs one evaluation's results with its telemetry snapshot so
// parallel fan-outs keep the two aligned per method.
type evalCell struct {
	res  *sim.Results
	snap telemetry.Snapshot
}

// evaluate runs p on a fresh facade evaluation environment. A non-nil spec
// replaces the installed scenario for this run. When telemetry is on, the
// run writes to a private registry whose final snapshot is returned and
// merged into Config.Telemetry; the private registry keeps concurrent
// evaluations separable per method, and its counters are pure functions of
// the trajectory, so the snapshot is deterministic.
func (b *Bundle) evaluate(p policy.Policy, spec *scenario.Spec) evalCell {
	env := b.sys.EvalEnv()
	if spec != nil {
		// Callers validate specs against the city up front, so this is a
		// programmer error, not an input error.
		if _, err := scenario.Attach(env, spec); err != nil {
			panic("report: " + err.Error())
		}
	}
	var reg *telemetry.Registry
	if b.Config.Telemetry != nil {
		reg = telemetry.NewRegistry()
		env.SetTelemetry(reg)
	}
	res := policy.Evaluate(p, env, b.sys.EvalSeed())
	snap := reg.Snapshot()
	b.Config.Telemetry.Merge(snap)
	return evalCell{res: res, snap: snap}
}

// record stores one method's clean evaluation.
func (b *Bundle) record(m fairmove.Method, c evalCell) {
	b.Results[m] = c.res
	if b.Config.Telemetry != nil {
		if b.Telemetry == nil {
			b.Telemetry = make(map[fairmove.Method]telemetry.Snapshot)
		}
		b.Telemetry[m] = c.snap
	}
}

// Run trains the six strategies through the facade and evaluates each on
// identical demand. Each method trains and evaluates on its own worker; the
// results reduce in fairmove.Methods() order, so the bundle is
// byte-identical for any worker count.
func Run(cfg Config) (*Bundle, error) {
	b, err := newBundle(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.PolicyPath != "" {
		if err := b.sys.LoadPolicy(cfg.PolicyPath); err != nil {
			return nil, fmt.Errorf("report: load policy: %w", err)
		}
	}
	methods := fairmove.Methods()
	cells, err := parallel.Map(cfg.Workers, len(methods),
		func(i int) (evalCell, error) {
			p, err := b.sys.PolicyFor(methods[i])
			if err != nil {
				return evalCell{}, err
			}
			return b.evaluate(p, nil), nil
		})
	if err != nil {
		return nil, err
	}
	for i, m := range methods {
		b.record(m, cells[i])
	}
	return b, nil
}

// RunGTOnly executes just the ground-truth run (enough for Figs. 3-8).
func RunGTOnly(cfg Config) (*Bundle, error) {
	b, err := newBundle(cfg)
	if err != nil {
		return nil, err
	}
	p, err := b.sys.PolicyFor(fairmove.GT)
	if err != nil {
		return nil, err
	}
	b.record(fairmove.GT, b.evaluate(p, nil))
	return b, nil
}

// RunAlphaSweep trains and evaluates a fresh FairMove per α (Table IV).
func (b *Bundle) RunAlphaSweep(alphas []float64) (err error) {
	b.Alpha, err = b.sys.AlphaSweep(alphas)
	return err
}

// RunScenarios re-evaluates every already-trained policy under each
// perturbation scenario, on identical fault schedules: specs are data, so
// method M and method N see byte-identical outages, surges, and dropouts.
// Results land in b.Scenarios[spec.Name][method]; FormatScenarioDeltas
// prints the per-scenario PE/PF deltas against the clean run. The trained
// policies are reused, not retrained — scenario scores measure robustness,
// not adaptation.
func (b *Bundle) RunScenarios(specs []*scenario.Spec) error {
	if b.sys == nil {
		return fmt.Errorf("report: RunScenarios needs a bundle built by Run, RunFull or RunGTOnly")
	}
	for _, spec := range specs {
		if err := scenario.ValidateFor(spec, b.sys.City()); err != nil {
			return err
		}
	}
	methods := b.methodsPresent()
	// Fan out over (scenario, method) pairs; each cell owns a private env,
	// so the grid reduces identically for any worker count.
	cells, err := parallel.Map(b.Config.Workers, len(specs)*len(methods),
		func(i int) (evalCell, error) {
			p, err := b.sys.PolicyFor(methods[i%len(methods)])
			if err != nil {
				return evalCell{}, err
			}
			return b.evaluate(p, specs[i/len(methods)]), nil
		})
	if err != nil {
		return err
	}
	if b.Scenarios == nil {
		b.Scenarios = make(map[string]map[fairmove.Method]*sim.Results)
	}
	if b.Config.Telemetry != nil && b.ScenarioTelemetry == nil {
		b.ScenarioTelemetry = make(map[string]map[fairmove.Method]telemetry.Snapshot)
	}
	for si, spec := range specs {
		row := make(map[fairmove.Method]*sim.Results, len(methods))
		snaps := make(map[fairmove.Method]telemetry.Snapshot, len(methods))
		for mi, m := range methods {
			c := cells[si*len(methods)+mi]
			row[m], snaps[m] = c.res, c.snap
		}
		b.Scenarios[spec.Name] = row
		if b.ScenarioTelemetry != nil {
			b.ScenarioTelemetry[spec.Name] = snaps
		}
		b.ScenarioOrder = append(b.ScenarioOrder, spec.Name)
	}
	return nil
}

// FormatScenarioDeltas prints, for every scenario run, each method's PE
// and PF with the relative change against its own clean-run score — the
// robustness table of the scenario-conditioned evaluation.
func (b *Bundle) FormatScenarioDeltas() string {
	var sb strings.Builder
	sb.WriteString("Scenario-conditioned evaluation (Δ vs clean run)\n")
	for _, name := range b.ScenarioOrder {
		row := b.Scenarios[name]
		fmt.Fprintf(&sb, "  scenario %s:\n", name)
		for _, m := range b.methodsPresent() {
			res, ok := row[m]
			if !ok {
				continue
			}
			clean := b.Results[m]
			pe, pf := metrics.FleetPE(res), metrics.ProfitFairness(res)
			cpe, cpf := metrics.FleetPE(clean), metrics.ProfitFairness(clean)
			fsp, cfsp := metrics.SpatialFairness(res), metrics.SpatialFairness(clean)
			fmt.Fprintf(&sb, "    %-10s PE %8.2f (%+6.1f%%)   PF %10.2f (%+6.1f%%)   Fsp %5.3f (%+6.1f%%)\n",
				m, pe, pctDelta(cpe, pe), pf, pctDelta(cpf, pf), fsp, pctDelta(cfsp, fsp))
		}
	}
	return sb.String()
}

// FormatTelemetry prints each method's clean-run simulation counters and,
// for every scenario, the counter deltas against that method's clean
// snapshot — the mechanism companion to FormatScenarioDeltas' score table
// (a PE drop reads differently next to "abandonments +412, charge_sessions
// -97" than next to nothing). Returns "" when telemetry was off.
func (b *Bundle) FormatTelemetry() string {
	if len(b.Telemetry) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("Telemetry (per-evaluation simulation counters)\n")
	for _, m := range b.methodsPresent() {
		snap, ok := b.Telemetry[m]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "  %-10s %s\n", m, counterLine(snap))
	}
	for _, name := range b.ScenarioOrder {
		row := b.ScenarioTelemetry[name]
		if len(row) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  scenario %s (Δ counters vs clean):\n", name)
		for _, m := range b.methodsPresent() {
			snap, ok := row[m]
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "    %-10s %s\n", m, deltaLine(b.Telemetry[m], snap))
		}
	}
	return sb.String()
}

// counterLine formats a snapshot's counters as sorted name=value pairs.
func counterLine(s telemetry.Snapshot) string {
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, s.Counters[k]))
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}

// deltaLine formats the nonzero counter differences of cur minus clean.
func deltaLine(clean, cur telemetry.Snapshot) string {
	seen := make(map[string]struct{}, len(clean.Counters)+len(cur.Counters))
	for k := range clean.Counters {
		seen[k] = struct{}{}
	}
	for k := range cur.Counters {
		seen[k] = struct{}{}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		if d := cur.Counters[k] - clean.Counters[k]; d != 0 {
			parts = append(parts, fmt.Sprintf("%s%+d", k+"=", d))
		}
	}
	if len(parts) == 0 {
		return "(no change)"
	}
	return strings.Join(parts, " ")
}

// pctDelta returns the relative change from base to v in percent, or 0
// when the base is zero (nothing meaningful to normalize by).
func pctDelta(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

// nearestOnly wraps a policy, forcing every charge decision to the nearest
// station — the station-choice ablation.
type nearestOnly struct{ inner policy.Policy }

func (n nearestOnly) Name() string         { return n.inner.Name() + "-NearestOnly" }
func (n nearestOnly) BeginEpisode(s int64) { n.inner.BeginEpisode(s) }
func (n nearestOnly) Act(env sim.Environment, v []int) map[int]sim.Action {
	acts := n.inner.Act(env, v)
	for id, a := range acts {
		if a.Kind == sim.Charge {
			acts[id] = sim.Action{Kind: sim.Charge, Arg: 0}
		}
	}
	return acts
}

// RunAblations evaluates the design-choice ablations of DESIGN.md §5:
// fairness-aware assignment, queue-aware station choice, and the demand
// forecast feature.
func (b *Bundle) RunAblations() {
	b.Ablations["Coordinator"] = b.evaluate(policy.NewCoordinator(), nil).res

	noFair := policy.NewCoordinator()
	noFair.FairShare = false
	b.Ablations["Coordinator-NoFair"] = b.evaluate(noFair, nil).res

	b.Ablations["Coordinator-NearestOnly"] = b.evaluate(nearestOnly{policy.NewCoordinator()}, nil).res

	// Forecast ablation: the trained FairMove policy evaluated with the
	// forecast feature zeroed out of every observation. Re-training is not
	// needed — evaluating blind shows how much weight the policy put on
	// that feature.
	if _, ok := b.Results[fairmove.FairMove]; ok {
		p, _ := b.sys.PolicyFor(fairmove.FairMove) // trained by Run: a cache hit
		opts := b.sys.EvalOptions()
		opts.NoForecastFeature = true
		env := sim.New(b.sys.City(), opts, b.Config.Seed)
		b.Ablations["FairMove-NoForecast"] = policy.Evaluate(p, env, b.sys.EvalSeed())
	}
}

// RunFull is Run plus the alpha sweep and ablations.
func RunFull(cfg Config, alphas []float64) (*Bundle, error) {
	b, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if len(alphas) > 0 {
		if err := b.RunAlphaSweep(alphas); err != nil {
			return nil, err
		}
	}
	b.RunAblations()
	return b, nil
}

// gt returns the ground-truth results, which every comparison references.
func (b *Bundle) gt() *sim.Results { return b.Results[fairmove.GT] }

// row formats one per-method line prefixed with the method name.
func row(m fairmove.Method, body string) string { return fmt.Sprintf("  %-10s %s\n", m, body) }

func (b *Bundle) methodsPresent() []fairmove.Method {
	var out []fairmove.Method
	for _, m := range fairmove.Methods() {
		if _, ok := b.Results[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// FormatComparisonSummary prints the headline Comparison of every method.
func (b *Bundle) FormatComparisonSummary() string {
	var sb strings.Builder
	sb.WriteString("Headline comparison vs ground truth\n")
	g := b.gt()
	for _, m := range b.methodsPresent() {
		sb.WriteString("  " + fairmove.Compare(m, g, b.Results[m]).String() + "\n")
	}
	return sb.String()
}

// cdfPoints formats an empirical CDF at fixed probes.
func cdfPoints(xs []float64, probes []float64) string {
	c := stats.NewCDF(xs)
	parts := make([]string, len(probes))
	for i, p := range probes {
		parts[i] = fmt.Sprintf("P(≤%.0fmin)=%.0f%%", p, c.At(p)*100)
	}
	return strings.Join(parts, " ")
}
