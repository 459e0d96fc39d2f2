package policy

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/checkpoint"
)

func marshalOrDie(t *testing.T, c checkpoint.Checkpointer) []byte {
	t.Helper()
	data, err := checkpoint.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// roundTrip proves the two checkpoint properties for one learner: a trained
// state survives Marshal → Unmarshal into a differently initialized twin, and
// re-marshaling the twin reproduces the original bytes exactly.
func roundTrip(t *testing.T, trained, fresh checkpoint.Checkpointer) {
	t.Helper()
	data := marshalOrDie(t, trained)
	if _, err := checkpoint.Unmarshal(data, fresh); err != nil {
		t.Fatal(err)
	}
	if again := marshalOrDie(t, fresh); !bytes.Equal(again, data) {
		t.Fatal("restored learner does not re-serialize byte-identically")
	}
}

// failClosed proves a digest-valid container with a malformed payload is
// rejected with ErrPayload, and one of format version 2 (float64
// transition rows) with ErrVersion, each leaving the learner bit-for-bit
// unchanged.
func failClosed(t *testing.T, learner checkpoint.Checkpointer) {
	t.Helper()
	before := marshalOrDie(t, learner)
	meta := checkpoint.Meta{
		Version:     checkpoint.Version,
		Kind:        learner.CheckpointKind(),
		Fingerprint: learner.CheckpointFingerprint(),
	}
	forged := checkpoint.Seal(meta, []byte{0xff, 0xee, 0xdd})
	if _, err := checkpoint.Unmarshal(forged, learner); !errors.Is(err, checkpoint.ErrPayload) {
		t.Fatalf("forged payload: %v, want ErrPayload", err)
	}
	if after := marshalOrDie(t, learner); !bytes.Equal(after, before) {
		t.Fatal("rejected payload mutated the learner")
	}
	e := checkpoint.NewEncoder()
	learner.EncodeCheckpoint(e)
	meta.Version = 2
	if _, err := checkpoint.Unmarshal(checkpoint.Seal(meta, e.Bytes()), learner); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("version-2 container: %v, want ErrVersion", err)
	}
	if after := marshalOrDie(t, learner); !bytes.Equal(after, before) {
		t.Fatal("rejected version-2 container mutated the learner")
	}
}

func TestDQNCheckpointRoundTrip(t *testing.T) {
	city := testCity(t, 5)
	d := NewDQN(0.6, 5)
	pretrain(t, d, city, NewGroundTruth(), 1, 5)
	train(t, d, city, 1, 5)
	// The twin differs only in weight initialization; hyperparameters (and
	// hence the fingerprint) match.
	roundTrip(t, d, NewDQN(0.6, 999))
	failClosed(t, d)
}

func TestTQLCheckpointRoundTrip(t *testing.T) {
	city := testCity(t, 6)
	q := NewTQL(0.6)
	pretrain(t, q, city, NewGroundTruth(), 1, 6)
	train(t, q, city, 1, 6)
	if len(q.q) == 0 {
		t.Fatal("training left the Q-table empty; round trip would be vacuous")
	}
	roundTrip(t, q, NewTQL(0.6))
	failClosed(t, q)
}

// TestTQLEncodeDeterministic pins the sorted-key emission: the Q-table is a
// map, and map iteration order must never leak into checkpoint bytes.
func TestTQLEncodeDeterministic(t *testing.T) {
	city := testCity(t, 8)
	q := NewTQL(0.6)
	pretrain(t, q, city, NewGroundTruth(), 1, 8)
	first := marshalOrDie(t, q)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(marshalOrDie(t, q), first) {
			t.Fatal("same Q-table serialized to different bytes")
		}
	}
}

func TestTBACheckpointRoundTrip(t *testing.T) {
	city := testCity(t, 9)
	b := NewTBA(9)
	pretrain(t, b, city, NewGroundTruth(), 1, 9)
	train(t, b, city, 1, 9)
	roundTrip(t, b, NewTBA(321))
	failClosed(t, b)
}

// TestCrossLearnerLoadRejected: a DQN checkpoint must never load into a TBA,
// even though both serialize an MLP + Adam + transitions.
func TestCrossLearnerLoadRejected(t *testing.T) {
	d := NewDQN(0.6, 11)
	data := marshalOrDie(t, d)
	b := NewTBA(11)
	before := marshalOrDie(t, b)
	if _, err := checkpoint.Unmarshal(data, b); !errors.Is(err, checkpoint.ErrKind) {
		t.Fatalf("cross-learner load: %v, want ErrKind", err)
	}
	if !bytes.Equal(marshalOrDie(t, b), before) {
		t.Fatal("rejected cross-learner load mutated the learner")
	}
}

// TestHyperparameterMismatchRejected: the same learner kind with a different
// config must fail the fingerprint check, not silently continue divergently.
func TestHyperparameterMismatchRejected(t *testing.T) {
	data := marshalOrDie(t, NewDQN(0.6, 12))
	other := NewDQN(0.8, 12) // different α
	if _, err := checkpoint.Unmarshal(data, other); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Fatalf("α mismatch: %v, want ErrFingerprint", err)
	}
}

// TestDQNReplayCursorValidated: the replay cursor is 0 until the ring is
// full and then below its length, so a payload whose cursor equals the
// stored length (where the next remember would write past a full ring) is
// malformed and leaves the learner unchanged.
func TestDQNReplayCursorValidated(t *testing.T) {
	d := NewDQN(0.6, 13)
	for k := 0; k < 3; k++ {
		tr := storeTransition(k)
		d.remember(&tr)
	}
	meta := checkpoint.Meta{Version: checkpoint.Version, Kind: d.CheckpointKind(), Fingerprint: d.CheckpointFingerprint()}
	withCursor := func(pos byte) []byte {
		e := checkpoint.NewEncoder()
		d.EncodeCheckpoint(e)
		payload := e.Bytes()
		payload[len(payload)-8] = pos // the cursor is the payload's last field
		return checkpoint.Seal(meta, payload)
	}
	before := marshalOrDie(t, d)
	if _, err := checkpoint.Unmarshal(withCursor(3), d); !errors.Is(err, checkpoint.ErrPayload) {
		t.Fatalf("cursor at the stored length: %v, want ErrPayload", err)
	}
	if !bytes.Equal(marshalOrDie(t, d), before) {
		t.Fatal("rejected cursor mutated the learner")
	}
	if _, err := checkpoint.Unmarshal(withCursor(0), d); err != nil {
		t.Fatalf("cursor 0: %v", err)
	}
}
