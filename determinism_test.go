package fairmove

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// microConfig is deliberately smaller than tinyConfig: the worker-invariance
// tests below train every method twice (once per worker count), and they
// must stay fast enough to run un-skipped under `go test -short -race` —
// they ARE the race-detector coverage for the parallel runtime.
func microConfig(seed int64, workers int) Config {
	return Config{
		Seed:             seed,
		Regions:          12,
		Stations:         4,
		Fleet:            24,
		SlotMinutes:      10,
		Days:             1,
		Alpha:            0.6,
		PretrainEpisodes: 1,
		TrainEpisodes:    1,
		TrainDays:        1,
		Workers:          workers,
	}
}

// Determinism regression: the same seed must produce the same EvalReport,
// both when re-evaluating a trained system and when rebuilding the system
// from scratch.
func TestEvaluateDeterministic(t *testing.T) {
	s1, err := NewSystem(microConfig(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	// Same system: the cached policy must evaluate identically.
	r2, err := s1.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("re-evaluation diverged:\n%+v\n%+v", r1, r2)
	}
	// Fresh system, same seed: the full train-and-evaluate pipeline must
	// reproduce the report exactly.
	s2, err := NewSystem(microConfig(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := s2.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatalf("rebuilt system diverged:\n%+v\n%+v", r1, r3)
	}
}

// The tentpole's executable spec: CompareAll with one worker and with four
// workers must produce byte-identical reports for the same seed. Training
// and evaluation both run inside CompareAll, so this exercises the full
// parallel runtime — fan-out over methods, parallel demonstration rollouts,
// and batched network inference.
func TestCompareAllWorkerInvariance(t *testing.T) {
	run := func(workers int) []Comparison {
		s, err := NewSystem(microConfig(3, workers))
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.CompareAll()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) != len(Methods()) {
		t.Fatalf("got %d comparisons, want %d", len(serial), len(Methods()))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("method %s: workers=1 and workers=4 reports differ:\n%+v\n%+v",
				serial[i].Method, serial[i], parallel[i])
		}
	}
}

// Telemetry is write-only, so enabling it must not perturb the byte-identity
// contract: CompareAll with telemetry on must match across worker counts, and
// the deterministic counter namespaces (sim.*, training prefixes) must also
// be identical — those counters are pure functions of the trajectory. The
// parallel.* namespace is scheduler-dependent by documented contract and is
// excluded, as are float histogram sums (accumulation order varies when
// concurrent evaluations share one registry).
func TestCompareAllWorkerInvarianceWithTelemetry(t *testing.T) {
	run := func(workers int) ([]Comparison, telemetry.Snapshot) {
		s, err := NewSystem(microConfig(3, workers))
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		s.SetTelemetry(reg)
		out, err := s.CompareAll()
		if err != nil {
			t.Fatal(err)
		}
		return out, reg.Snapshot()
	}
	serial, snap1 := run(1)
	parallel, snap4 := run(4)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("telemetry perturbed results for %s:\n%+v\n%+v",
				serial[i].Method, serial[i], parallel[i])
		}
	}
	c1, c4 := deterministicCounters(snap1), deterministicCounters(snap4)
	if !reflect.DeepEqual(c1, c4) {
		t.Fatalf("deterministic counters diverged across worker counts:\nworkers=1: %v\nworkers=4: %v", c1, c4)
	}
	// Sanity: the instrumentation actually fired.
	for _, name := range []string{"sim.slots", "sim.matches", "core.episodes", "dqn.transitions"} {
		if c1[name] == 0 {
			t.Errorf("counter %s never incremented", name)
		}
	}
	// And the results with telemetry match the plain run of the same seed.
	s, err := NewSystem(microConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.CompareAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, serial) {
		t.Fatalf("enabling telemetry changed the report:\nplain: %+v\ntelemetry: %+v", plain, serial)
	}
}

func deterministicCounters(s telemetry.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for k, v := range s.Counters {
		if !strings.HasPrefix(k, "parallel.") {
			out[k] = v
		}
	}
	return out
}

// TestCheckpointResumeDeterminism is the checkpoint subsystem's executable
// spec at the system level: a CMA2C training run killed after fine-tune
// episode 1 and resumed from its checkpoint (by re-running the identical
// command with -resume) finishes with a byte-identical policy file, an
// identical evaluation report, and training telemetry that sums exactly to
// the unbroken run's.
func TestCheckpointResumeDeterminism(t *testing.T) {
	const seed = 11
	cfg := microConfig(seed, 0)
	cfg.TrainEpisodes = 2
	policyBytes := func(s *System) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "policy.fmck")
		if err := s.SavePolicy(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Unbroken run, cadence on.
	unbroken, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regU := telemetry.NewRegistry()
	unbroken.SetTelemetry(regU)
	if _, err := unbroken.TrainWithOptions(TrainOptions{CheckpointDir: t.TempDir(), CheckpointEvery: 1, CheckpointKeep: 10}); err != nil {
		t.Fatal(err)
	}
	countersU := deterministicCounters(regU.Snapshot())
	wantPolicy := policyBytes(unbroken)
	wantEval, err := unbroken.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}

	// Crashed run: same command, killed after the first fine-tune episode —
	// modeled as a run whose episode total IS the crash point, which leaves
	// the same episode-1 checkpoint behind (CMA2C has no total-dependent
	// schedule, and the file is cut at the episode boundary either way).
	dir := t.TempDir()
	crashCfg := cfg
	crashCfg.TrainEpisodes = 1
	crashed, err := NewSystem(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	regC := telemetry.NewRegistry()
	crashed.SetTelemetry(regC)
	if _, err := crashed.TrainWithOptions(TrainOptions{CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: 10}); err != nil {
		t.Fatal(err)
	}
	countersC := deterministicCounters(regC.Snapshot())

	// Resumed run: fresh process (fresh System), identical command, -resume.
	resumed, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regR := telemetry.NewRegistry()
	resumed.SetTelemetry(regR)
	if _, err := resumed.TrainWithOptions(TrainOptions{CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: 10, Resume: true}); err != nil {
		t.Fatal(err)
	}
	countersR := deterministicCounters(regR.Snapshot())

	// Byte-identical weights.
	if !bytes.Equal(policyBytes(resumed), wantPolicy) {
		t.Fatal("resumed policy file is not byte-identical to the unbroken run's")
	}
	// Identical evaluation (PE, PF, and every other report field).
	gotEval, err := resumed.Evaluate(FairMove)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEval, wantEval) {
		t.Fatalf("resumed evaluation diverged:\n%+v\n%+v", gotEval, wantEval)
	}
	// Telemetry: the resumed run does exactly the remaining work — its
	// deterministic training counters plus the crashed prefix's equal the
	// unbroken run's, key for key.
	sum := make(map[string]int64, len(countersC))
	for k, v := range countersC {
		sum[k] += v
	}
	for k, v := range countersR {
		sum[k] += v
	}
	if !reflect.DeepEqual(sum, countersU) {
		t.Fatalf("telemetry counters do not sum to the unbroken run's:\ncrash+resume: %v\nunbroken:     %v", sum, countersU)
	}
}

// TestBaselineCheckpointResumeDeterminism pins the same contract for a
// baseline learner with a total-dependent schedule: DQN's ε decay depends on
// the episode total, so the resumed run must re-run the identical command and
// re-derive the schedule position from the restored episode cursor.
func TestBaselineCheckpointResumeDeterminism(t *testing.T) {
	const seed, total = 17, 2
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	evalPEPF := func(d *policy.DQN) (float64, float64, int) {
		env := sim.New(city, sim.DefaultOptions(1), seed)
		res := policy.Evaluate(d, env, seed+1000)
		return metrics.FleetPE(res), metrics.ProfitFairness(res), res.ServedRequests
	}
	dir := t.TempDir()

	unbroken := policy.NewDQN(0.6, seed)
	unbroken.Pretrain(city, policy.NewGroundTruth(), 1, 1, seed)
	if _, err := unbroken.TrainCheckpointed(city, total, 1, seed, checkpoint.TrainOptions{Dir: dir, Every: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	want, err := checkpoint.Marshal(unbroken)
	if err != nil {
		t.Fatal(err)
	}

	resumed := policy.NewDQN(0.6, seed)
	mid := filepath.Join(dir, checkpoint.FileName(checkpoint.PhaseTrain, 1))
	if _, err := checkpoint.ReadFile(mid, resumed); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainCheckpointed(city, total, 1, seed, checkpoint.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed DQN is not byte-identical to the unbroken run")
	}
	pe1, pf1, served1 := evalPEPF(unbroken)
	pe2, pf2, served2 := evalPEPF(resumed)
	if pe1 != pe2 || pf1 != pf2 || served1 != served2 {
		t.Fatalf("resumed DQN evaluates differently: PE %v/%v PF %v/%v served %d/%d",
			pe1, pe2, pf1, pf2, served1, served2)
	}
}

// TestShardCountInvariance pins the sharded engine's contract at the system
// level: a full train-and-evaluate pipeline configured with Shards=1, 2, 4,
// and 8 must produce byte-identical trained-policy checkpoints, identical
// evaluation trace digests, identical deterministic telemetry counters, and
// identical reports. The shard count may only change wall-clock, never a
// single byte of the trajectory.
func TestShardCountInvariance(t *testing.T) {
	type outcome struct {
		digest   string
		counters map[string]int64
		policy   []byte
		report   EvalReport
	}
	run := func(shards int) outcome {
		cfg := microConfig(21, 0)
		cfg.Shards = shards
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var events []trace.Event
		s.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
		reg := telemetry.NewRegistry()
		s.SetTelemetry(reg)
		rep, err := s.Evaluate(FairMove) // trains, then evaluates, both sharded
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "policy.fmck")
		if err := s.SavePolicy(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{
			digest:   trace.DigestEvents(events),
			counters: deterministicCounters(reg.Snapshot()),
			policy:   data,
			report:   rep,
		}
	}
	ref := run(1)
	if ref.digest == "" {
		t.Fatal("evaluation recorded no events")
	}
	for _, k := range []int{2, 4, 8} {
		got := run(k)
		if got.digest != ref.digest {
			t.Errorf("shards=%d: eval trace digest %s != shards=1 digest %s", k, got.digest, ref.digest)
		}
		if !reflect.DeepEqual(got.counters, ref.counters) {
			t.Errorf("shards=%d: deterministic counters diverged:\n%v\n%v", k, got.counters, ref.counters)
		}
		if !bytes.Equal(got.policy, ref.policy) {
			t.Errorf("shards=%d: trained policy checkpoint is not byte-identical to shards=1", k)
		}
		if !reflect.DeepEqual(got.report, ref.report) {
			t.Errorf("shards=%d: evaluation report diverged:\n%+v\n%+v", k, got.report, ref.report)
		}
	}
}

// AlphaSweep must likewise be invariant to the worker count.
func TestAlphaSweepWorkerInvariance(t *testing.T) {
	alphas := []float64{0.8, 0.2} // unsorted on purpose: output order is sorted
	run := func(workers int) []AlphaPoint {
		s, err := NewSystem(microConfig(5, workers))
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.AlphaSweep(alphas)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	p1, p4 := run(1), run(4)
	if len(p1) != 2 || p1[0].Alpha != 0.2 || p1[1].Alpha != 0.8 {
		t.Fatalf("alphas not sorted: %+v", p1)
	}
	if !reflect.DeepEqual(p1, p4) {
		t.Fatalf("sweep diverged across worker counts:\nworkers=1: %+v\nworkers=4: %+v", p1, p4)
	}
}
