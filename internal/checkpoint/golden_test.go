package checkpoint_test

// Golden checkpoint fixtures.
//
// For each learner kind, a micro-city training run (one demonstration
// episode + one fine-tune episode, seed 42) is serialized and committed
// under testdata/checkpoints/<kind>.fmck with its SHA-256 recorded next to
// it in <kind>.digest. The test then proves three things against the
// committed bytes:
//
//   - compatibility: today's build still loads checkpoints written in the
//     past (the fixture IS a past build's output once committed);
//   - stability: re-serializing the loaded state reproduces the fixture
//     byte-for-byte, so the encoding has not silently drifted;
//   - reproducibility: retraining from scratch yields the fixture bytes,
//     pinning the whole train→serialize pipeline.
//
// The fixtures are container version 3: transition buffers are one float32
// row block per store (policy.EncodeTransitions). Their regeneration for
// version 3 moved no trajectory: every network, optimizer, counter and
// transition scalar decoded as in the version-2 files, and every row is
// float32 of the version-2 float64 row.
//
// To regenerate after an INTENTIONAL format or training change:
//
//	go test ./internal/checkpoint -run TestGoldenCheckpoints -update
//
// and bump checkpoint.Version if the container or payload layout changed
// shape. Never update goldens to quiet a failure you cannot explain.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden checkpoint fixtures")

const goldenSeed = 42

var goldenKinds = []string{"cma2c", "dqn", "tql", "tba"}

// fixtureDir is the repo-root testdata tree, shared with the scenario
// fixtures; checkpoints are a repo-wide contract, not a package detail.
var fixtureDir = filepath.Join("..", "..", "testdata", "checkpoints")

func goldenCity(t *testing.T) *synth.City {
	t.Helper()
	city, err := synth.Build(synth.MicroConfig(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// goldenLearner builds the learner for one fixture; trained runs the fixed
// micro curriculum, untrained returns a twin with identical hyperparameters
// for the load test.
func goldenLearner(t *testing.T, kind string, city *synth.City, trained bool) checkpoint.Checkpointer {
	t.Helper()
	var l policy.Learner
	switch kind {
	case "cma2c":
		f, err := core.New(core.DefaultConfig(0.6, goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		l = f
	case "dqn":
		l = policy.NewDQN(0.6, goldenSeed)
	case "tql":
		l = policy.NewTQL(0.6)
	case "tba":
		l = policy.NewTBA(goldenSeed)
	default:
		t.Fatalf("unknown golden kind %q", kind)
	}
	if trained {
		if err := policy.Pretrain(l, city, policy.NewGroundTruth(), 1, 1, goldenSeed, checkpoint.TrainOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := policy.Train(l, city, 1, 1, goldenSeed, checkpoint.TrainOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestGoldenCheckpoints(t *testing.T) {
	for _, kind := range goldenKinds {
		t.Run(kind, func(t *testing.T) {
			fixture := filepath.Join(fixtureDir, kind+".fmck")
			digestPath := filepath.Join(fixtureDir, kind+".digest")

			if *update {
				city := goldenCity(t)
				data, err := checkpoint.Marshal(goldenLearner(t, kind, city, true))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(fixture, data, 0o644); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if err := os.WriteFile(digestPath, []byte(hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			data, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			wantDigest, err := os.ReadFile(digestPath)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(wantDigest)) {
				t.Fatalf("fixture bytes do not match their recorded digest:\n got %s\nwant %s", got, strings.TrimSpace(string(wantDigest)))
			}

			// Compatibility: the committed bytes load into a fresh learner.
			city := goldenCity(t)
			fresh := goldenLearner(t, kind, city, false)
			meta, err := checkpoint.Unmarshal(data, fresh)
			if err != nil {
				t.Fatalf("golden checkpoint no longer loads: %v\nIf the format change is intentional, bump checkpoint.Version and regenerate with -update.", err)
			}
			if meta.Kind != kind {
				t.Fatalf("meta.Kind = %q", meta.Kind)
			}

			// Stability: re-serializing reproduces the fixture exactly.
			again, err := checkpoint.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("encoding drifted: restored %s state re-serializes to different bytes.\nIf intentional, bump checkpoint.Version and regenerate with -update.", kind)
			}
		})
	}
}

// TestGoldenRetrainReproduces pins the whole pipeline: training from scratch
// with the fixed seed reproduces the committed fixture bytes. This is the
// byte-identical-restart contract extended back to episode zero.
func TestGoldenRetrainReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("retraining all learners is not short")
	}
	for _, kind := range goldenKinds {
		t.Run(kind, func(t *testing.T) {
			fixture := filepath.Join(fixtureDir, kind+".fmck")
			want, err := os.ReadFile(fixture)
			if err != nil {
				t.Skipf("%v (run with -update to create)", err)
			}
			city := goldenCity(t)
			got, err := checkpoint.Marshal(goldenLearner(t, kind, city, true))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("retraining %s does not reproduce its golden checkpoint", kind)
			}
		})
	}
}
