package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/policy"
)

func trainedFairMove(t *testing.T, seed int64) *FairMove {
	t.Helper()
	city := testCity(t, seed)
	f, err := New(DefaultConfig(0.6, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.Pretrain(f, city, policy.NewGroundTruth(), 1, 1, seed, checkpoint.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	train(t, f, city, 1, seed)
	return f
}

func TestFairMoveCheckpointRoundTrip(t *testing.T) {
	f := trainedFairMove(t, 3)
	data, err := checkpoint.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	// The twin shares the config (the fingerprint covers it, including the
	// seed) but has fresh random weights; decode must replace all of them.
	twin, err := New(DefaultConfig(0.6, 3))
	if err != nil {
		t.Fatal(err)
	}
	twin.actor.Layers[0].W.Data[0] += 0.5
	if _, err := checkpoint.Unmarshal(data, twin); err != nil {
		t.Fatal(err)
	}
	again, err := checkpoint.Marshal(twin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("restored FairMove does not re-serialize byte-identically")
	}
}

func TestFairMoveCheckpointFailClosed(t *testing.T) {
	f := trainedFairMove(t, 4)
	before, err := checkpoint.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	meta := checkpoint.Meta{
		Version:     checkpoint.Version,
		Kind:        f.CheckpointKind(),
		Fingerprint: f.CheckpointFingerprint(),
	}
	forged := checkpoint.Seal(meta, []byte{1, 2, 3, 4})
	if _, err := checkpoint.Unmarshal(forged, f); !errors.Is(err, checkpoint.ErrPayload) {
		t.Fatalf("forged payload: %v, want ErrPayload", err)
	}
	after, err := checkpoint.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("rejected payload mutated the learner")
	}
}

func TestFairMoveConfigMismatchRejected(t *testing.T) {
	f := trainedFairMove(t, 5)
	data, err := checkpoint.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(DefaultConfig(0.8, 5)) // different α
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Unmarshal(data, other); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Fatalf("α mismatch: %v, want ErrFingerprint", err)
	}
}

// TestFairMoveResumeDeterminism: a CMA2C run killed after fine-tune episode 1
// and resumed in a fresh instance finishes byte-identical to the unbroken
// run — including the fine-tuning optimizer swap, which must not re-fire on
// resume.
func TestFairMoveResumeDeterminism(t *testing.T) {
	const seed, total = 21, 2
	city := testCity(t, seed)
	dir := t.TempDir()

	a, err := New(DefaultConfig(0.6, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.Pretrain(a, city, policy.NewGroundTruth(), 1, 1, seed, checkpoint.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := policy.Train(a, city, total, 1, seed, checkpoint.TrainOptions{Dir: dir, Every: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	want, err := checkpoint.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}

	mid := filepath.Join(dir, checkpoint.FileName(checkpoint.PhaseTrain, 1))
	resumed, err := New(DefaultConfig(0.6, seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.ReadFile(mid, resumed); err != nil {
		t.Fatal(err)
	}
	if !resumed.fineTuning {
		t.Fatal("restored learner lost the fine-tuning flag")
	}
	if _, err := policy.Train(resumed, city, total, 1, seed, checkpoint.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed CMA2C run is not byte-identical to the unbroken run")
	}
}
