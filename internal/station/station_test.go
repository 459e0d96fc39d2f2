package station

import (
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/partition"
)

func testStation(points int) Station {
	return Station{
		ID:      0,
		Name:    "CS-000",
		Loc:     geo.Point{Lng: 114, Lat: 22.5},
		Region:  0,
		Points:  points,
		Charger: energy.DefaultFastCharger(),
	}
}

func TestArrivePlugsWhenFree(t *testing.T) {
	s := NewState(testStation(2))
	if !s.Arrive(1) {
		t.Fatal("first arrival should plug in")
	}
	if !s.Arrive(2) {
		t.Fatal("second arrival should plug in")
	}
	if s.Arrive(3) {
		t.Fatal("third arrival should queue")
	}
	if s.Occupied() != 2 || s.QueueLen() != 1 || s.Free() != 0 {
		t.Fatalf("occupied=%d queue=%d free=%d", s.Occupied(), s.QueueLen(), s.Free())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFinishPromotesFIFO(t *testing.T) {
	s := NewState(testStation(1))
	s.Arrive(10)
	s.Arrive(20)
	s.Arrive(30)
	if got := s.Finish(10); got != 20 {
		t.Fatalf("promoted %d, want 20 (FIFO)", got)
	}
	if got := s.Finish(20); got != 30 {
		t.Fatalf("promoted %d, want 30", got)
	}
	if got := s.Finish(30); got != -1 {
		t.Fatalf("promoted %d, want -1 (empty queue)", got)
	}
	if s.Occupied() != 0 || s.QueueLen() != 0 {
		t.Fatal("station not empty after all finished")
	}
}

func TestFinishNotChargingPanics(t *testing.T) {
	s := NewState(testStation(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Finish of non-charging taxi did not panic")
		}
	}()
	s.Finish(99)
}

func TestArriveTwicePanics(t *testing.T) {
	s := NewState(testStation(1))
	s.Arrive(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Arrive did not panic")
		}
	}()
	s.Arrive(1)
}

func TestIsChargingAndReset(t *testing.T) {
	s := NewState(testStation(1))
	s.Arrive(5)
	if !s.IsCharging(5) || s.IsCharging(6) {
		t.Fatal("IsCharging wrong")
	}
	s.Reset()
	if s.Occupied() != 0 || s.QueueLen() != 0 || s.IsCharging(5) {
		t.Fatal("Reset did not clear state")
	}
}

// Reset keeps the charging map's buckets and the queue's backing array:
// refilling a reset state to the occupancy it had allocates nothing, and
// the reset state answers an Arrive/Finish/SetDerate script exactly as a
// fresh one does.
func TestResetReusesBuffers(t *testing.T) {
	const points, arrivals = 4, 12
	fill := func(s *State) {
		for id := 1; id <= arrivals; id++ {
			s.Arrive(id)
		}
	}
	s := NewState(testStation(points))
	fill(s)
	s.SetDerate(1)
	if allocs := testing.AllocsPerRun(20, func() { s.Reset(); fill(s) }); allocs != 0 {
		t.Fatalf("refill after Reset allocates %v/op, want 0", allocs)
	}
	if s.Occupied() != points || s.QueueLen() != arrivals-points {
		t.Fatalf("refill: occupied=%d queue=%d", s.Occupied(), s.QueueLen())
	}

	script := func(s *State) []int {
		var out []int
		for id := 20; id < 27; id++ {
			if s.Arrive(id) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
		out = append(out, s.Finish(21), s.Finish(20))
		out = append(out, s.SetDerate(3)...)
		out = append(out, s.Finish(22), s.Finish(23))
		out = append(out, s.SetDerate(0)...)
		out = append(out, s.Occupied(), s.QueueLen(), s.Free(), s.Derate())
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	s.Reset()
	if got, want := script(s), script(NewState(testStation(points))); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset state answered %v, fresh state %v", got, want)
	}
}

func TestInvariantQueueWithFreePoints(t *testing.T) {
	s := NewState(testStation(2))
	s.Arrive(1)
	s.waiting = append(s.waiting, 9) // corrupt deliberately
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("invariant check missed queue-with-free-points")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	good := []Station{testStation(5)}
	if _, err := NewNetwork(good); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
	if _, err := NewNetwork(nil); err == nil {
		t.Error("empty network accepted")
	}
	bad := testStation(5)
	bad.ID = 3
	if _, err := NewNetwork([]Station{bad}); err == nil {
		t.Error("non-dense IDs accepted")
	}
	zero := testStation(0)
	if _, err := NewNetwork([]Station{zero}); err == nil {
		t.Error("zero points accepted")
	}
	badCharger := testStation(5)
	badCharger.Charger.PowerKW = -1
	if _, err := NewNetwork([]Station{badCharger}); err == nil {
		t.Error("invalid charger accepted")
	}
}

func TestNetworkNearest(t *testing.T) {
	stations := []Station{
		{ID: 0, Loc: geo.Point{Lng: 0, Lat: 0}, Points: 1, Charger: energy.DefaultFastCharger()},
		{ID: 1, Loc: geo.Point{Lng: 1, Lat: 0}, Points: 1, Charger: energy.DefaultFastCharger()},
		{ID: 2, Loc: geo.Point{Lng: 2, Lat: 0}, Points: 1, Charger: energy.DefaultFastCharger()},
	}
	n, err := NewNetwork(stations)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Nearest(geo.Point{Lng: 0.1, Lat: 0}, 2)
	if len(res) != 2 || res[0].Label != 0 || res[1].Label != 1 {
		t.Fatalf("Nearest = %+v", res)
	}
	if n.TotalPoints() != 3 {
		t.Fatalf("TotalPoints = %d", n.TotalPoints())
	}
}

func TestGenerateShenzhenScale(t *testing.T) {
	p := partition.GenerateShenzhen(1)
	seeds := make([]RegSeed, p.Len())
	for i, r := range p.Regions() {
		seeds[i] = RegSeed{Region: r.ID, Centroid: r.Centroid, Weight: 1}
	}
	n, err := Generate(1, GenerateOpts{Count: 123, Regions: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 123 {
		t.Fatalf("station count = %d, want 123", n.Len())
	}
	// Paper: 123 stations with over 5,000 charging points.
	if tp := n.TotalPoints(); tp < 2400 || tp > 7500 {
		t.Fatalf("total points = %d, want thousands (paper: >5000)", tp)
	}
	regions := make(map[int]bool)
	for _, s := range n.Stations() {
		if s.Points < 20 || s.Points > 60 {
			t.Fatalf("station %d has %d points, want 20-60", s.ID, s.Points)
		}
		if regions[s.Region] {
			t.Fatalf("two stations in region %d (sampling should be without replacement)", s.Region)
		}
		regions[s.Region] = true
		if s.Charger.PowerKW < 40 || s.Charger.PowerKW > 60 {
			t.Fatalf("station %d charger power %v", s.ID, s.Charger.PowerKW)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := partition.GenerateShenzhen(1)
	seeds := make([]RegSeed, p.Len())
	for i, r := range p.Regions() {
		seeds[i] = RegSeed{Region: r.ID, Centroid: r.Centroid, Weight: float64(i%7) + 1}
	}
	a, _ := Generate(5, GenerateOpts{Count: 50, Regions: seeds})
	b, _ := Generate(5, GenerateOpts{Count: 50, Regions: seeds})
	for i := 0; i < 50; i++ {
		if a.Station(i).Loc != b.Station(i).Loc || a.Station(i).Points != b.Station(i).Points {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(1, GenerateOpts{Count: 0}); err == nil {
		t.Error("Count=0 accepted")
	}
	if _, err := Generate(1, GenerateOpts{Count: 5, Regions: []RegSeed{{}}}); err == nil {
		t.Error("too few regions accepted")
	}
}
