package station

import (
	"reflect"
	"testing"
)

func TestDerateBlocksNewArrivals(t *testing.T) {
	s := NewState(testStation(3))
	s.SetDerate(2)
	if s.EffectivePoints() != 1 || s.Free() != 1 {
		t.Fatalf("effective=%d free=%d, want 1, 1", s.EffectivePoints(), s.Free())
	}
	if !s.Arrive(1) {
		t.Fatal("first arrival should plug into the remaining point")
	}
	if s.Arrive(2) {
		t.Fatal("second arrival should queue behind the derate")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDerateNeverInterruptsSessions(t *testing.T) {
	s := NewState(testStation(2))
	s.Arrive(1)
	s.Arrive(2)
	if promoted := s.SetDerate(2); promoted != nil {
		t.Fatalf("derating a full station promoted %v", promoted)
	}
	// Both sessions keep running even though effective capacity is zero.
	if !s.charging[1] || !s.charging[2] {
		t.Fatal("derate interrupted an in-progress session")
	}
	// A finishing session must NOT promote while occupancy >= effective.
	s.waiting = []int{9}
	if got := s.Finish(1); got != -1 {
		t.Fatalf("Finish promoted %d into derated capacity", got)
	}
	if s.Occupied() != 1 || s.Free() != 0 {
		t.Fatalf("occupied=%d free=%d after drain", s.Occupied(), s.Free())
	}
}

func TestDerateLiftPromotesFIFO(t *testing.T) {
	s := NewState(testStation(3))
	s.SetDerate(3)
	for _, id := range []int{4, 5, 6} {
		if s.Arrive(id) {
			t.Fatalf("taxi %d plugged into a fully derated station", id)
		}
	}
	if promoted := s.SetDerate(1); !reflect.DeepEqual(promoted, []int{4, 5}) {
		t.Fatalf("promoted %v, want [4 5]", promoted)
	}
	if promoted := s.SetDerate(0); !reflect.DeepEqual(promoted, []int{6}) {
		t.Fatalf("promoted %v, want [6]", promoted)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDerateClampedToInventory(t *testing.T) {
	s := NewState(testStation(2))
	s.SetDerate(99)
	if s.Derate() != 2 || s.EffectivePoints() != 0 {
		t.Fatalf("derate=%d effective=%d, want 2, 0", s.Derate(), s.EffectivePoints())
	}
	s.SetDerate(-4)
	if s.Derate() != 0 || s.EffectivePoints() != 2 {
		t.Fatalf("derate=%d effective=%d, want 0, 2", s.Derate(), s.EffectivePoints())
	}
}

func TestDrainQueue(t *testing.T) {
	s := NewState(testStation(1))
	s.Arrive(1)
	s.Arrive(2)
	s.Arrive(3)
	if got := s.DrainQueue(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("drained %v, want [2 3]", got)
	}
	if s.QueueLen() != 0 || !s.charging[1] {
		t.Fatal("drain touched the charging set or left queue entries")
	}
	if got := s.DrainQueue(); got != nil {
		t.Fatalf("second drain returned %v", got)
	}
}

func TestResetClearsDerate(t *testing.T) {
	s := NewState(testStation(2))
	s.SetDerate(2)
	s.Reset()
	if s.Derate() != 0 || s.EffectivePoints() != 2 {
		t.Fatalf("derate=%d effective=%d after Reset", s.Derate(), s.EffectivePoints())
	}
}
