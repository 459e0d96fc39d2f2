package policy

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// storeTransition builds transition k of a synthetic stream: its rows hold
// k*1000 + feature index (obs) and its negation (next), every third one is
// terminal with a nonzero NextObs the store must not keep.
func storeTransition(k int) Transition {
	obs := make([]float32, sim.FeatureSize)
	next := make([]float32, sim.FeatureSize)
	for j := range obs {
		obs[j] = float32(k*1000 + j)
		next[j] = -obs[j]
	}
	tr := Transition{
		Obs: obs, NextObs: next,
		Action: k % sim.NumActions, Reward: float64(k) / 4, Elapsed: 1 + k%3, Terminal: k%3 == 2,
	}
	tr.Mask[k%sim.NumActions] = true
	tr.NextMask[(k+1)%sim.NumActions] = true
	return tr
}

// checkStored requires stored transition i to be synthetic transition k:
// its scalars, its obs row, and its next row (zeros when terminal), both
// through At and through the gathers.
func checkStored(t *testing.T, s *TransitionStore, i, k int) {
	t.Helper()
	want := storeTransition(k)
	if want.Terminal {
		want.NextObs = make([]float32, sim.FeatureSize)
	}
	got := s.At(i)
	if got.Mask != want.Mask || got.NextMask != want.NextMask || got.Action != want.Action ||
		got.Reward != want.Reward || got.Elapsed != want.Elapsed || got.Terminal != want.Terminal {
		t.Fatalf("transition %d: scalars %+v, want those of %d", i, got, k)
	}
	if !slices.Equal(got.Obs, want.Obs) || !slices.Equal(got.NextObs, want.NextObs) {
		t.Fatalf("transition %d: rows differ from those of %d", i, k)
	}
	idxs := []int{i, i}
	x, xn := s.GatherObs(nil, idxs), s.GatherNext(nil, idxs)
	if x.Rows != 2 || x.Cols != sim.FeatureSize || xn.Rows != 2 {
		t.Fatalf("gather shapes %dx%d and %dx%d", x.Rows, x.Cols, xn.Rows, xn.Cols)
	}
	for r := range idxs {
		if !slices.Equal(x.Row(r), want.Obs) || !slices.Equal(xn.Row(r), want.NextObs) {
			t.Fatalf("gathered row %d of transition %d differs from transition %d", r, i, k)
		}
	}
}

func TestTransitionStoreAppendAndGather(t *testing.T) {
	var s TransitionStore
	for k := 0; k < 7; k++ {
		tr := storeTransition(k)
		s.Add(&tr)
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
	for i := 0; i < 7; i++ {
		checkStored(t, &s, i, i)
	}

	// A gather into a reused matrix reshapes it and picks rows by index.
	x := s.GatherObs(nil, []int{0, 1, 2, 3})
	x = s.GatherObs(x, []int{6, 0})
	if x.Rows != 2 || x.Row(0)[0] != 6000 || x.Row(1)[0] != 0 {
		t.Fatalf("regather: %dx%d, first features %v %v", x.Rows, x.Cols, x.Row(0)[0], x.Row(1)[0])
	}

	var all TransitionStore
	all.Extend(&s)
	all.Extend(&s)
	if all.Len() != 14 {
		t.Fatalf("Extend: Len = %d, want 14", all.Len())
	}
	checkStored(t, &all, 9, 2)
}

func TestTransitionRingOverwritesOldest(t *testing.T) {
	s := NewTransitionRing(4)
	for k := 0; k < 10; k++ {
		tr := storeTransition(k)
		s.Add(&tr)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want the capacity 4", s.Len())
	}
	// Transitions 0..3 filled the ring; 4..7 overwrote slots 0..3 and 8, 9
	// slots 0, 1, so the cursor sits on slot 2.
	for i, k := range []int{8, 9, 6, 7} {
		checkStored(t, &s, i, k)
	}
	if s.next != 2 {
		t.Fatalf("cursor %d, want 2", s.next)
	}
}

func TestEncodeTransitionsRoundTrip(t *testing.T) {
	var s TransitionStore
	for k := 0; k < 5; k++ {
		tr := storeTransition(k)
		s.Add(&tr)
	}
	e := checkpoint.NewEncoder()
	EncodeTransitions(e, &s)
	data := e.Bytes()
	got, err := DecodeTransitions(checkpoint.NewDecoder(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		checkStored(t, &got, i, i)
	}
	again := checkpoint.NewEncoder()
	EncodeTransitions(again, &got)
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("decoded store re-encodes to different bytes")
	}

	var empty TransitionStore
	e = checkpoint.NewEncoder()
	EncodeTransitions(e, &empty)
	if got, err := DecodeTransitions(checkpoint.NewDecoder(e.Bytes())); err != nil || got.Len() != 0 {
		t.Fatalf("empty store: %d transitions, %v", got.Len(), err)
	}
}

func TestDecodeTransitionsRejects(t *testing.T) {
	tr := storeTransition(0)
	encode := func(mutate func(s *TransitionStore), count int) []byte {
		var s TransitionStore
		s.Add(&tr)
		s.Add(&tr)
		mutate(&s)
		e := checkpoint.NewEncoder()
		EncodeTransitions(e, &s)
		out := e.Bytes()
		if count >= 0 {
			out[0] = byte(count) // the count's low byte; the store holds 2
		}
		return out
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"count above the row block", encode(func(*TransitionStore) {}, 3), "transition block"},
		{"count below the row block", encode(func(*TransitionStore) {}, 1), "transition block"},
		{"row block one value short", encode(func(s *TransitionStore) { s.rows = s.rows[:len(s.rows)-1] }, -1), "transition block"},
		{"action out of range", encode(func(s *TransitionStore) { s.scal[1].action = sim.NumActions }, -1), "action"},
		{"negative action", encode(func(s *TransitionStore) { s.scal[0].action = -1 }, -1), "action"},
		{"negative elapsed", encode(func(s *TransitionStore) { s.scal[1].elapsed = -1 }, -1), "elapsed"},
		{"scalars cut short", encode(func(*TransitionStore) {}, -1)[:20+rowStride*2*4], "implausible"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTransitions(checkpoint.NewDecoder(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
