// Package fairmove is the public API of the FairMove reproduction: a
// fairness-aware vehicle displacement system for large-scale electric taxi
// fleets (Wang et al., ICDE 2021).
//
// The package wraps the internal substrates (synthetic city, fleet
// simulator, learning algorithms) behind three operations:
//
//   - NewSystem builds a synthetic city and the untrained FairMove policy.
//   - (*System).TrainWithOptions runs CMA2C training (Algorithm 1 of the
//     paper), with optional checkpoints and resume.
//   - (*System).Evaluate / (*System).CompareAll run any of the six
//     strategies (GT, SD2, TQL, DQN, TBA, FairMove) on identical demand and
//     report the paper's metrics (PE, PF, PRCT, PRIT, PIPE, PIPF).
//
// See example_test.go for checked examples and DESIGN.md for the architecture.
package fairmove

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Method names one of the six displacement strategies of the evaluation.
type Method string

// The evaluated strategies (Section IV-A).
const (
	GT       Method = "GT"       // ground truth: uncoordinated drivers
	SD2      Method = "SD2"      // shortest-distance displacement
	TQL      Method = "TQL"      // tabular Q-learning
	DQN      Method = "DQN"      // deep Q-network
	TBA      Method = "TBA"      // trip bandit (REINFORCE), competitive
	FairMove Method = "FairMove" // the paper's CMA2C system
)

// Methods lists all strategies in report order.
func Methods() []Method { return []Method{GT, SD2, TQL, DQN, TBA, FairMove} }

// Config sizes the scenario and the training run. Zero values are filled
// with defaults by NewSystem.
type Config struct {
	// Scenario.
	Seed        int64
	Regions     int // paper: 491
	Stations    int // paper: 123
	Fleet       int // paper: 20,130 (default here: 300)
	TripsPerDay int // default: 37 per taxi per day, the paper's ratio
	SlotMinutes int // paper: 10
	Days        int // evaluation horizon (default 2)

	// Learning.
	Alpha float64 // efficiency/fairness weight (paper: 0.6)
	// PretrainEpisodes is the number of demonstration episodes (driven by
	// the coordinated-dispatch teacher) used to warm-start each learner
	// before reward-driven fine-tuning; see DESIGN.md §2 for why repro-scale
	// training needs the warm start. Default 4.
	PretrainEpisodes int
	TrainEpisodes    int // reward-driven fine-tuning episodes (default 6)
	TrainDays        int // days simulated per training episode (default 1)
	// EvalWarmupDays excludes the fleet's start-up transient from metrics
	// (default 1).
	EvalWarmupDays int

	// Workers bounds the goroutines the system may use: CompareAll and
	// AlphaSweep fan each method/α out to its own worker, and the learned
	// policies batch their network inference across the same budget.
	// <= 0 means GOMAXPROCS. Every worker count produces byte-identical
	// results for the same seed — parallelism only changes wall-clock.
	Workers int

	// Shards is how many region shards every simulation (training and
	// evaluation) steps in parallel; <= 0 means 1. It is parallelism only:
	// Shards=1 and Shards=8 produce byte-identical trajectories. See
	// DESIGN.md §7.
	Shards int
}

// DefaultConfig returns a laptop-scale configuration. It preserves the
// paper's intensive ratios — trips per taxi per day and, crucially, taxi
// density per region (the paper has 20,130 taxis over 491 regions ≈ 41 per
// region; matching collapses if the fleet is scattered far thinner than
// that) — by shrinking the region count along with the fleet.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		Fleet:            300,
		SlotMinutes:      10,
		Days:             2,
		Alpha:            0.6,
		PretrainEpisodes: 4,
		TrainEpisodes:    6,
		TrainDays:        1,
		EvalWarmupDays:   1,
	}
}

func (c *Config) fillDefaults() {
	if c.Fleet == 0 {
		c.Fleet = 300
	}
	if c.Regions == 0 {
		// Keep ≈4 taxis per region at repro scale, capped at the paper's 491.
		c.Regions = c.Fleet / 4
		if c.Regions < 20 {
			c.Regions = 20
		}
		if c.Regions > 491 {
			c.Regions = 491
		}
	}
	if c.Stations == 0 {
		// Keep the paper's ≈4:1 region:station ratio.
		c.Stations = c.Regions / 4
		if c.Stations < 4 {
			c.Stations = 4
		}
		if c.Stations > 123 {
			c.Stations = 123
		}
	}
	if c.TripsPerDay == 0 {
		// The paper's fleet sees ≈37 requests per taxi per day. Our
		// simulator keeps taxis on duty around the clock (no driver rest),
		// so the equivalent friction-bound load — where matching quality,
		// not raw capacity, decides outcomes, as in the paper — sits near
		// 15 requests per taxi per day. See DESIGN.md §2.
		c.TripsPerDay = 15 * c.Fleet
	}
	if c.SlotMinutes == 0 {
		c.SlotMinutes = 10
	}
	if c.Days == 0 {
		c.Days = 2
	}
	if c.Alpha == 0 {
		c.Alpha = 0.6
	}
	if c.PretrainEpisodes == 0 {
		c.PretrainEpisodes = 4
	}
	if c.TrainEpisodes == 0 {
		c.TrainEpisodes = 6
	}
	if c.EvalWarmupDays == 0 {
		c.EvalWarmupDays = 1
	}
	if c.TrainDays == 0 {
		c.TrainDays = 1
	}
}

// System is a constructed scenario plus its (possibly trained) policies.
type System struct {
	cfg  Config
	city *synth.City
	fm   *core.FairMove

	// scn is the installed perturbation scenario (nil = clean run). It
	// conditions evaluation only; training always runs on the clean city, so
	// scenario scores measure robustness of a policy, not adaptation to a
	// disclosed fault schedule.
	scn *scenario.Spec

	// tel, when non-nil, receives simulation counters from every evaluation
	// environment and training stats from every learner built after
	// SetTelemetry. The registry is shared — CompareAll's concurrent methods
	// aggregate into it — so facade telemetry reads as fleet-wide totals;
	// use internal/report for per-method snapshots.
	tel *telemetry.Registry

	// rec, when non-nil, receives the canonical event stream of every
	// evaluation environment built after SetRecorder.
	rec sim.Recorder

	// mu guards trained. CompareAll trains methods on concurrent workers;
	// each method is owned by exactly one worker, so only the shared cache
	// needs the lock.
	mu      sync.Mutex
	trained map[Method]policy.Policy
}

// NewSystem builds the synthetic city and an untrained FairMove policy.
func NewSystem(cfg Config) (*System, error) {
	cfg.fillDefaults()
	city, err := synth.Build(synth.Config{
		Seed:        cfg.Seed,
		Regions:     cfg.Regions,
		Stations:    cfg.Stations,
		Fleet:       cfg.Fleet,
		TripsPerDay: cfg.TripsPerDay,
		SlotMinutes: cfg.SlotMinutes,
	})
	if err != nil {
		return nil, fmt.Errorf("fairmove: %w", err)
	}
	fm, err := core.New(coreConfig(cfg, cfg.Alpha))
	if err != nil {
		return nil, fmt.Errorf("fairmove: %w", err)
	}
	return &System{
		cfg:     cfg,
		city:    city,
		fm:      fm,
		trained: make(map[Method]policy.Policy),
	}, nil
}

// Config returns the (default-filled) configuration.
func (s *System) Config() Config { return s.cfg }

// City returns the synthetic city this system simulates. The city is
// read-only during simulation; callers may share it across environments.
func (s *System) City() *synth.City { return s.city }

// EvalSeed returns the seed evaluation environments are reset with. It is
// offset from the scenario seed so evaluation demand differs from training
// demand; anything that must be byte-identical to Evaluate (the serve
// equivalence contract) has to reset with this exact value.
func (s *System) EvalSeed() int64 { return s.cfg.Seed + 1000 }

// EvalOptions returns the evaluation protocol options (horizon plus warmup).
// A feed recorded with these options covers exactly the horizon an
// evaluation environment runs.
func (s *System) EvalOptions() sim.Options { return s.evalOptions() }

// EvalEnv builds a fresh evaluation environment with the installed scenario,
// telemetry, and recorder attached. Each call returns an independent
// environment; the caller owns stepping it.
func (s *System) EvalEnv() sim.Environment { return s.newEvalEnv() }

// PolicyFor returns the policy implementing a method, training it first if
// the method is learned and no policy has been trained or loaded yet.
func (s *System) PolicyFor(m Method) (policy.Policy, error) { return s.policyFor(m) }

// LoadPolicyInto reads a FairMove checkpoint into a fresh policy instance,
// leaving the system's own policy untouched. Corrupt, truncated, or
// fingerprint-mismatched files fail closed with an error and no policy.
// This is the validation step behind serve's hot swap: the running policy
// keeps serving until the replacement loads completely.
func (s *System) LoadPolicyInto(path string) (policy.Policy, error) {
	fm, err := core.New(coreConfig(s.cfg, s.cfg.Alpha))
	if err != nil {
		return nil, fmt.Errorf("fairmove: %w", err)
	}
	fm.SetTelemetry(s.tel)
	if _, err := checkpoint.ReadFile(path, fm); err != nil {
		return nil, fmt.Errorf("fairmove: %w", err)
	}
	return fm, nil
}

// SetScenario conditions all subsequent Evaluate/CompareAll calls on a
// perturbation scenario (station outages, demand surges, GPS dropouts, …),
// validated against this system's city. Every method then scores under the
// identical fault schedule. SetScenario(nil) restores clean evaluation.
func (s *System) SetScenario(spec *scenario.Spec) error {
	if spec != nil {
		if err := scenario.ValidateFor(spec, s.city); err != nil {
			return err
		}
	}
	s.scn = spec
	return nil
}

// Scenario returns the installed scenario spec, or nil for clean runs.
func (s *System) Scenario() *scenario.Spec { return s.scn }

// SetTelemetry installs (or, with nil, removes) a metrics registry. All
// subsequent evaluation environments and newly trained learners write their
// counters, gauges, and timers into it. Telemetry is write-only — nothing
// reads a metric back into a decision — so results are byte-identical with
// or without it.
func (s *System) SetTelemetry(r *telemetry.Registry) {
	s.tel = r
	s.fm.SetTelemetry(r)
}

// coreConfig returns the CMA2C configuration for cfg at weight alpha.
func coreConfig(cfg Config, alpha float64) core.Config {
	c := core.DefaultConfig(alpha, cfg.Seed)
	c.Workers = cfg.Workers
	c.Shards = cfg.Shards
	return c
}

// newEvalEnv builds an evaluation environment with the installed scenario
// (if any) attached.
func (s *System) newEvalEnv() sim.Environment {
	env := sim.New(s.city, s.evalOptions(), s.cfg.Seed)
	if s.scn != nil {
		// Validated in SetScenario; Attach re-checks against the same city.
		if _, err := scenario.Attach(env, s.scn); err != nil {
			panic("fairmove: " + err.Error())
		}
	}
	env.SetTelemetry(s.tel)
	env.SetRecorder(s.rec)
	return env
}

// SetRecorder installs (or, with nil, removes) a trace recorder that every
// subsequent evaluation environment emits its events into. Like telemetry it
// is write-only: recording cannot perturb a trajectory. Recorders see the
// canonical event order whatever the engine, so digests taken here are the
// cross-engine and cross-shard comparison point.
func (s *System) SetRecorder(r sim.Recorder) { s.rec = r }

// TrainReport summarizes FairMove training.
type TrainReport struct {
	Episodes    int
	MeanReward  []float64 // per episode; the "average reward r" of Table IV
	CriticLoss  []float64
	Transitions int
}

// TrainOptions controls checkpointing and resumption of training.
type TrainOptions struct {
	// CheckpointDir, when non-empty, receives crash-safe checkpoints during
	// training; a final checkpoint is always written when training ends.
	CheckpointDir string
	// CheckpointEvery is the cadence in episodes; <= 0 writes only the final
	// checkpoint of each phase.
	CheckpointEvery int
	// CheckpointKeep bounds how many checkpoints the directory retains
	// (default 3).
	CheckpointKeep int
	// Resume loads the newest valid checkpoint from CheckpointDir before
	// training and continues toward the configured episode totals. With no
	// checkpoint present training starts fresh, so a crashed run is resumed
	// by re-running the identical command; an intact checkpoint of another
	// format version fails the call instead (checkpoint.ErrVersion), leaving
	// the directory as it was. The completed run is
	// byte-identical to one that never crashed (pinned in
	// determinism_test.go).
	Resume bool
}

// TrainWithOptions warm-starts FairMove from the coordinated-dispatch
// teacher and then runs CMA2C reward-driven training for the configured
// number of episodes (Algorithm 1), checkpointing and resuming as opts
// asks. The zero opts trains without touching the disk.
func (s *System) TrainWithOptions(opts TrainOptions) (TrainReport, error) {
	if opts.Resume && opts.CheckpointDir != "" {
		path, _, err := checkpoint.Latest(opts.CheckpointDir)
		switch {
		case err == nil:
			if _, err := checkpoint.ReadFile(path, s.fm); err != nil {
				return TrainReport{}, fmt.Errorf("fairmove: resume: %w", err)
			}
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Nothing saved yet: fresh start.
		default:
			return TrainReport{}, fmt.Errorf("fairmove: resume: %w", err)
		}
	}
	copts := checkpoint.TrainOptions{Dir: opts.CheckpointDir, Every: opts.CheckpointEvery, Keep: opts.CheckpointKeep}
	st, err := s.train(s.fm, s.cfg.TrainEpisodes, copts)
	if err != nil {
		return TrainReport{}, err
	}
	s.mu.Lock()
	s.trained[FairMove] = s.fm
	s.mu.Unlock()
	return TrainReport{
		Episodes:    st.Episodes,
		MeanReward:  st.MeanReward,
		CriticLoss:  st.CriticLoss,
		Transitions: st.Transitions,
	}, nil
}

// SavePolicy writes the FairMove policy (trained or not) to path as a
// single checkpoint file — a first-class artifact that later eval or compare
// runs reload instead of retraining.
func (s *System) SavePolicy(path string) error {
	if err := checkpoint.WriteFile(path, s.fm); err != nil {
		return fmt.Errorf("fairmove: %w", err)
	}
	return nil
}

// LoadPolicy restores a FairMove policy saved by SavePolicy (or any training
// checkpoint written under the same configuration) and marks it trained, so
// Evaluate and CompareAll reuse it without retraining. Corrupt or mismatched
// files fail closed: the in-memory policy is left untouched.
func (s *System) LoadPolicy(path string) error {
	if _, err := checkpoint.ReadFile(path, s.fm); err != nil {
		return fmt.Errorf("fairmove: %w", err)
	}
	s.mu.Lock()
	s.trained[FairMove] = s.fm
	s.mu.Unlock()
	return nil
}

// train warm-starts l from the coordinated-dispatch teacher for the
// configured demonstration episodes, then fine-tunes it toward episodes.
func (s *System) train(l policy.Learner, episodes int, opts checkpoint.TrainOptions) (policy.TrainStats, error) {
	if err := policy.Pretrain(l, s.city, policy.NewCoordinator(), s.cfg.PretrainEpisodes, s.cfg.TrainDays, s.cfg.Seed, opts); err != nil {
		return policy.TrainStats{}, fmt.Errorf("fairmove: %w", err)
	}
	st, err := policy.Train(l, s.city, episodes, s.cfg.TrainDays, s.cfg.Seed, opts)
	if err != nil {
		return st, fmt.Errorf("fairmove: %w", err)
	}
	return st, nil
}

// policyFor returns (training if needed) the policy for a method. Training
// runs outside the lock: every method trains on its own environments, its
// own teacher, and rng streams split stably from its own names, so methods
// train concurrently without influencing one another — the property that
// lets CompareAll fan out while staying byte-identical to a serial run.
func (s *System) policyFor(m Method) (policy.Policy, error) {
	s.mu.Lock()
	p, ok := s.trained[m]
	s.mu.Unlock()
	if ok {
		return p, nil
	}
	var l policy.Learner
	episodes := s.cfg.TrainEpisodes
	switch m {
	case GT:
		p = policy.NewGroundTruth()
	case SD2:
		p = policy.NewSD2()
	case TQL:
		q := policy.NewTQL(s.cfg.Alpha)
		q.Shards = s.cfg.Shards
		q.SetTelemetry(s.tel)
		p, l = q, q
	case DQN:
		d := policy.NewDQN(s.cfg.Alpha, s.cfg.Seed)
		d.Shards = s.cfg.Shards
		d.Workers = s.cfg.Workers
		d.SetTelemetry(s.tel)
		p, l, episodes = d, d, (s.cfg.TrainEpisodes+1)/2
	case TBA:
		b := policy.NewTBA(s.cfg.Seed)
		b.Shards = s.cfg.Shards
		b.Workers = s.cfg.Workers
		b.SetTelemetry(s.tel)
		p, l, episodes = b, b, (s.cfg.TrainEpisodes+1)/2
	case FairMove:
		if _, err := s.TrainWithOptions(TrainOptions{}); err != nil {
			return nil, err
		}
		p = s.fm
	default:
		return nil, fmt.Errorf("fairmove: unknown method %q", m)
	}
	if l != nil {
		if _, err := s.train(l, episodes, checkpoint.TrainOptions{}); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.trained[m] = p
	s.mu.Unlock()
	return p, nil
}

// EvalReport is the outcome of one strategy on the evaluation horizon.
type EvalReport struct {
	Method           Method
	MeanPE           float64 // mean profit efficiency (CNY/h)
	MedianPE         float64
	PF               float64 // profit fairness (variance; smaller = fairer)
	GiniPE           float64
	MedianCruiseMin  float64
	MedianIdleMin    float64
	ServedRequests   int
	UnservedRequests int
	FleetProfitCNY   float64
	ChargeEvents     int
	// Spatial fairness of service across regions.
	FSpatial float64 // 1 − Gini of per-region demand-service ratio
	GiniDSR  float64
	FloorDSR float64 // worst region's demand-service ratio (NaN when no demand)
}

// MarshalJSON emits the report with FloorDSR as null when it is NaN (a
// total demand blackout leaves no region with a service ratio):
// encoding/json refuses non-finite floats, so the raw struct would make
// every blackout report unserializable.
func (r EvalReport) MarshalJSON() ([]byte, error) {
	type alias EvalReport // drops the method set, avoiding recursion
	return json.Marshal(struct {
		alias
		FloorDSR json.RawMessage
	}{alias(r), metrics.JSONFloat(r.FloorDSR)})
}

// Evaluate runs one strategy on the configured horizon. All methods are
// evaluated on the same demand realization (same seed), so reports are
// directly comparable.
func (s *System) Evaluate(m Method) (EvalReport, error) {
	p, err := s.policyFor(m)
	if err != nil {
		return EvalReport{}, err
	}
	res := policy.Evaluate(p, s.newEvalEnv(), s.EvalSeed())
	return evalReport(m, res), nil
}

// evalOptions returns the common evaluation protocol: the configured
// horizon preceded by warmup days excluded from metrics, stepped with the
// configured shard count.
func (s *System) evalOptions() sim.Options {
	opts := sim.DefaultOptions(s.cfg.Days)
	opts.WarmupDays = s.cfg.EvalWarmupDays
	opts.Shards = s.cfg.Shards
	return opts
}

func evalReport(m Method, res *sim.Results) EvalReport {
	r := EvalReport{
		Method:           m,
		MeanPE:           metrics.FleetPE(res),
		PF:               metrics.ProfitFairness(res),
		GiniPE:           stats.Gini(res.PEs()),
		ServedRequests:   res.ServedRequests,
		UnservedRequests: res.UnservedRequests,
		FleetProfitCNY:   res.FleetProfit(),
		ChargeEvents:     len(res.ChargeStats),
		FSpatial:         metrics.SpatialFairness(res),
		GiniDSR:          metrics.GiniDSR(res),
		FloorDSR:         metrics.AccessibilityFloor(res),
	}
	r.MedianPE, _ = stats.Median(res.PEs())
	r.MedianCruiseMin, _ = stats.Median(res.CruiseTimes())
	r.MedianIdleMin, _ = stats.Median(res.IdleTimes())
	return r
}

// Comparison is one strategy's metrics relative to ground truth — one
// column of the paper's Tables II/III and Figs. 15/16.
type Comparison struct {
	EvalReport
	PRCT float64 // % cruise-time reduction vs GT (Table II)
	PRIT float64 // % idle-time reduction vs GT (Table III)
	PIPE float64 // % profit-efficiency increase vs GT (Fig. 15)
	PIPF float64 // % profit-fairness increase vs GT (Fig. 16)
}

// MarshalJSON preserves the flat object shape the embedded EvalReport gives
// the default encoding. Without it the EvalReport.MarshalJSON promoted from
// the embedded field would take over and silently drop the four
// versus-ground-truth percentages.
func (c Comparison) MarshalJSON() ([]byte, error) {
	rep, err := json.Marshal(c.EvalReport)
	if err != nil {
		return nil, err
	}
	extra, err := json.Marshal(struct{ PRCT, PRIT, PIPE, PIPF float64 }{c.PRCT, c.PRIT, c.PIPE, c.PIPF})
	if err != nil {
		return nil, err
	}
	merged := append(rep[:len(rep)-1], ',')
	return append(merged, extra[1:]...), nil
}

// Compare reports strategy results d, produced by method m, against ground
// truth g. CompareAll builds its rows with it; the paper report formats
// ablation rows through it too, so m may name any evaluated policy.
func Compare(m Method, g, d *sim.Results) Comparison {
	return Comparison{
		EvalReport: evalReport(m, d),
		PRCT:       metrics.PRCT(g, d),
		PRIT:       metrics.PRIT(g, d),
		PIPE:       metrics.PIPE(g, d),
		PIPF:       metrics.PIPF(g, d),
	}
}

// String renders the comparison as one report row. FloorDSR is the one
// field with a legitimate no-signal value (NaN under a total demand
// blackout) and renders as "n/a" there.
func (c Comparison) String() string {
	return fmt.Sprintf("%-10s PRCT=%6.1f%% PRIT=%6.1f%% PIPE=%6.1f%% PIPF=%6.1f%% meanPE=%6.2f PF=%7.2f Fsp=%5.3f floor=%s",
		c.Method, c.PRCT, c.PRIT, c.PIPE, c.PIPF, c.MeanPE, c.PF, c.FSpatial, metrics.FormatRatio(c.FloorDSR))
}

// CompareAll evaluates every strategy on the same demand realization and
// reports each against ground truth, in Methods() order.
//
// Each method is fanned out to its own worker with a private environment;
// the shared city is read-only during simulation and every method's rng
// streams are split stably from its own names, so the reduction — always in
// Methods() order — is byte-identical for any worker count.
func (s *System) CompareAll() ([]Comparison, error) {
	ms := Methods()
	results, err := parallel.Map(s.cfg.Workers, len(ms),
		func(i int) (*sim.Results, error) {
			p, err := s.policyFor(ms[i])
			if err != nil {
				return nil, err
			}
			return policy.Evaluate(p, s.newEvalEnv(), s.EvalSeed()), nil
		})
	if err != nil {
		return nil, err
	}
	g := results[0] // Methods() leads with GT, the comparison base
	out := make([]Comparison, len(ms))
	for i, m := range ms {
		out[i] = Compare(m, g, results[i])
	}
	return out, nil
}

// AlphaPoint is one row of the paper's Table IV: a FairMove trained at
// weight Alpha, with the mean decision reward of its final training episode
// and the fleet metrics it buys on the evaluation horizon.
type AlphaPoint struct {
	Alpha  float64
	Reward float64 // final-episode mean decision reward (the table's r)
	MeanPE float64 // evaluated mean profit efficiency (CNY/h)
	PF     float64 // evaluated profit fairness (variance)
}

// AlphaSweep trains a fresh FairMove at each α and evaluates it — the
// paper's Table IV. Points are returned in ascending α order.
//
// Each α trains on its own worker with a private FairMove, teacher, and
// environments; results reduce in sorted-α order, so the sweep is
// byte-identical for any worker count.
func (s *System) AlphaSweep(alphas []float64) ([]AlphaPoint, error) {
	sorted := append([]float64(nil), alphas...)
	sort.Float64s(sorted)
	return parallel.Map(s.cfg.Workers, len(sorted),
		func(i int) (AlphaPoint, error) {
			pt := AlphaPoint{Alpha: sorted[i]}
			fm, err := core.New(coreConfig(s.cfg, pt.Alpha))
			if err != nil {
				return pt, err
			}
			st, err := s.train(fm, s.cfg.TrainEpisodes, checkpoint.TrainOptions{})
			if err != nil {
				return pt, err
			}
			if len(st.MeanReward) > 0 {
				pt.Reward = st.MeanReward[len(st.MeanReward)-1]
			}
			res := policy.Evaluate(fm, s.newEvalEnv(), s.EvalSeed())
			pt.MeanPE, pt.PF = metrics.FleetPE(res), metrics.ProfitFairness(res)
			return pt, nil
		})
}
