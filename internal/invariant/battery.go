package invariant

// The property-based robustness battery: N seeded random scenario
// compositions from the full fault zoo, each replayed at every configured
// shard count with the invariant checker attached. Two kinds of failure
// exist: an invariant violation on any run, and a trace-digest mismatch
// between shard counts. Either dumps the offending scenario spec as a
// canonical JSON reproducer so the failure replays outside the battery.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// BatteryConfig sizes one battery run. The zero value is the CI short-mode
// configuration: 64 compositions on the micro city, one day each, shards
// 1 and 4.
type BatteryConfig struct {
	// N is the number of random compositions (default 64).
	N int
	// Seed fixes the city, the run streams, and the generated scenarios;
	// the battery is a pure function of this config (default 42).
	Seed int64
	// Shards is the shard-count ladder every composition replays at
	// (default {1, 4}); digests must agree across the ladder.
	Shards []int
	// Days is the horizon per run (default 1).
	Days int
	// ReproDir, when non-empty, receives <scenario>.json reproducer specs
	// for every failing composition.
	ReproDir string
}

// Failure is one failed composition: a run that violated invariants, or a
// shard ladder whose digests diverged.
type Failure struct {
	Scenario   string      // generated spec name
	Mode       string      // "shards=K" or "digest"
	Detail     string      // one-line description
	Violations []Violation // empty for digest mismatches
	SpecJSON   []byte      // canonical reproducer spec
	ReproPath  string      // where SpecJSON was written ("" if not dumped)
}

// Report is the outcome of a battery run.
type Report struct {
	Compositions int
	Runs         int // runs executed (compositions × len(Shards))
	Failures     []Failure
}

// OK reports whether every run passed every invariant with identical
// digests across the shard ladder.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// RunBattery executes the battery and returns its report. It only returns
// a non-nil error for harness problems (unbuildable city, unwritable
// reproducer dir); invariant violations are data, not errors.
func RunBattery(cfg BatteryConfig) (*Report, error) {
	if cfg.N <= 0 {
		cfg.N = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1, 4}
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	city, err := synth.Build(synth.MicroConfig(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("invariant: build city: %w", err)
	}
	// Start near the forced-charge threshold so every composition
	// exercises the charging pipeline — the richest invariant surface.
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.3
	}
	gen := scenario.GenConfig{
		Stations:   city.Stations.Len(),
		Regions:    city.Partition.Len(),
		HorizonMin: cfg.Days * 24 * 60,
	}
	opts := sim.DefaultOptions(cfg.Days)

	rep := &Report{Compositions: cfg.N}
	for i := 0; i < cfg.N; i++ {
		name := fmt.Sprintf("battery-%04d", i)
		spec, err := scenario.Generate(rng.SplitStable(cfg.Seed, fmt.Sprintf("battery/%d", i)), name, gen)
		if err != nil {
			return nil, fmt.Errorf("invariant: generate %s: %w", name, err)
		}
		specJSON, err := scenario.Encode(spec)
		if err != nil {
			return nil, fmt.Errorf("invariant: encode %s: %w", name, err)
		}
		fail := func(mode, detail string, vs []Violation) error {
			f := Failure{Scenario: name, Mode: mode, Detail: detail, Violations: vs, SpecJSON: specJSON}
			if cfg.ReproDir != "" {
				if err := os.MkdirAll(cfg.ReproDir, 0o755); err != nil {
					return fmt.Errorf("invariant: reproducer dir: %w", err)
				}
				f.ReproPath = filepath.Join(cfg.ReproDir, name+".json")
				if err := os.WriteFile(f.ReproPath, specJSON, 0o644); err != nil {
					return fmt.Errorf("invariant: write reproducer: %w", err)
				}
			}
			rep.Failures = append(rep.Failures, f)
			return nil
		}

		ladder := make([]string, len(cfg.Shards))
		for j, k := range cfg.Shards {
			opts.Shards = k
			d, vs, err := CheckedRun(sim.New(city, opts, cfg.Seed), spec, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rep.Runs++
			ladder[j] = d
			if len(vs) > 0 {
				if err := fail(fmt.Sprintf("shards=%d", k), vs[0].String(), vs); err != nil {
					return nil, err
				}
			}
		}
		for j := 1; j < len(ladder); j++ {
			if ladder[j] != ladder[0] {
				detail := fmt.Sprintf("shards=%d digest %s != shards=%d digest %s",
					cfg.Shards[j], ladder[j], cfg.Shards[0], ladder[0])
				if err := fail("digest", detail, nil); err != nil {
					return nil, err
				}
			}
		}
	}
	return rep, nil
}

// CheckedRun replays one spec on one freshly built environment with the
// invariant checker attached and returns the trace digest plus every
// violation. It is the single-run building block of the battery, exported
// so reproducer specs can be replayed in isolation.
func CheckedRun(env sim.Environment, spec *scenario.Spec, seed int64) (string, []Violation, error) {
	if spec != nil {
		if _, err := scenario.Attach(env, spec); err != nil {
			return "", nil, fmt.Errorf("invariant: attach %s: %w", spec.Name, err)
		}
	}
	ck := New(env, Options{Energy: true, Requests: true, Stranding: true})
	var events []trace.Event
	env.SetRecorder(ck.Recorder(func(ev trace.Event) { events = append(events, ev) }))
	env.Reset(seed)
	ck.Begin()
	for !env.Done() {
		env.Step(nil)
		ck.AfterStep()
	}
	return trace.DigestEvents(events), ck.Finish(), nil
}
