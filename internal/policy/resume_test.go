package policy_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/synth"
)

// TestResumeMatchesUnbroken is the crash/resume proof of the shared training
// loop, for every learner in both phases. The command is "pretrain 2" for
// the pretrain phase and "pretrain 1, train 2" for the fine-tune phase, one
// day per episode. Three runs of it must leave byte-identical learners: an
// unbroken run writing a checkpoint after every episode, a run with
// checkpoints off (writes never perturb training), and a fresh learner that
// loads the unbroken run's checkpoint after episode 1 of the phase — the
// state a crash there leaves — and re-runs the identical command.
func TestResumeMatchesUnbroken(t *testing.T) {
	learners := []struct {
		name string
		seed int64
		// build returns an untrained learner. init seeds its weights where
		// the checkpoint fingerprint leaves that free (DQN, TBA), so the
		// resumed learner starts from other weights than the unbroken one;
		// CMA2C's fingerprint covers its seed, and TQL has no weights.
		build func(t *testing.T, seed, init int64) policy.Learner
	}{
		{"DQN", 7, func(_ *testing.T, _, init int64) policy.Learner { return policy.NewDQN(0.6, init) }},
		{"TQL", 13, func(_ *testing.T, _, _ int64) policy.Learner { return policy.NewTQL(0.6) }},
		{"TBA", 9, func(_ *testing.T, _, init int64) policy.Learner { return policy.NewTBA(init) }},
		{"CMA2C", 21, func(t *testing.T, seed, _ int64) policy.Learner {
			f, err := core.New(core.DefaultConfig(0.6, seed))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
	phases := []struct {
		name               string
		phase              int
		pretrain, finetune int
	}{
		{"pretrain", checkpoint.PhasePretrain, 2, 0},
		{"train", checkpoint.PhaseTrain, 1, 2},
	}
	for _, lc := range learners {
		for _, ph := range phases {
			t.Run(lc.name+"/"+ph.name, func(t *testing.T) {
				city, err := synth.Build(synth.TestConfig(lc.seed))
				if err != nil {
					t.Fatal(err)
				}
				run := func(l policy.Learner, opts checkpoint.TrainOptions) []byte {
					t.Helper()
					if err := policy.Pretrain(l, city, policy.NewGroundTruth(), ph.pretrain, 1, lc.seed, opts); err != nil {
						t.Fatal(err)
					}
					if ph.finetune > 0 {
						if _, err := policy.Train(l, city, ph.finetune, 1, lc.seed, opts); err != nil {
							t.Fatal(err)
						}
					}
					data, err := checkpoint.Marshal(l)
					if err != nil {
						t.Fatal(err)
					}
					return data
				}
				dir := t.TempDir()
				opts := checkpoint.TrainOptions{Dir: dir, Every: 1, Keep: 10}
				want := run(lc.build(t, lc.seed, lc.seed), opts)

				if got := run(lc.build(t, lc.seed, lc.seed), checkpoint.TrainOptions{}); !bytes.Equal(got, want) {
					t.Fatal("enabling checkpoints changed the training trajectory")
				}

				resumed := lc.build(t, lc.seed, 404)
				mid := filepath.Join(dir, checkpoint.FileName(ph.phase, 1))
				if _, err := checkpoint.ReadFile(mid, resumed); err != nil {
					t.Fatal(err)
				}
				if phase, ep := resumed.CheckpointProgress(); phase != ph.phase || ep != 1 {
					t.Fatalf("restored progress (phase %d, episode %d), want (%d, 1)", phase, ep, ph.phase)
				}
				if got := run(resumed, opts); !bytes.Equal(got, want) {
					t.Fatal("resumed run is not byte-identical to the unbroken run")
				}
			})
		}
	}
}
