package partition

import (
	"testing"

	"repro/internal/geo"
)

// shenzhen generates the 491-region partition over the Shenzhen bounding
// box that the evaluation cities use.
func shenzhen(t *testing.T, seed int64) *Partition {
	t.Helper()
	p, err := Generate(seed, 491, ShenzhenBBox)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateShenzhenBasics(t *testing.T) {
	p := shenzhen(t, 1)
	if p.Len() != 491 {
		t.Fatalf("region count = %d, want 491", p.Len())
	}
	if !p.IsConnected() {
		t.Fatal("partition not connected")
	}
	for _, r := range p.Regions() {
		if len(r.Neighbors) == 0 {
			t.Fatalf("region %d has no neighbors", r.ID)
		}
		if len(r.Neighbors) > 8 {
			t.Fatalf("region %d has %d neighbors", r.ID, len(r.Neighbors))
		}
		if len(r.Polygon.Ring) < 3 {
			t.Fatalf("region %d has degenerate polygon", r.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := shenzhen(t, 7)
	b := shenzhen(t, 7)
	for i := 0; i < a.Len(); i++ {
		if a.Region(i).Centroid != b.Region(i).Centroid {
			t.Fatalf("same seed produced different centroids at region %d", i)
		}
	}
	c := shenzhen(t, 8)
	diff := false
	for i := 0; i < a.Len(); i++ {
		if a.Region(i).Centroid != c.Region(i).Centroid {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical partitions")
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	p := shenzhen(t, 2)
	for _, r := range p.Regions() {
		for _, nb := range r.Neighbors {
			found := false
			for _, back := range p.Region(nb).Neighbors {
				if back == r.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", r.ID, nb)
			}
		}
	}
}

func TestDistancePositive(t *testing.T) {
	p := shenzhen(t, 10)
	if p.Distance(0, 0) != 0 {
		t.Fatal("self distance not 0")
	}
	if d := p.Distance(0, p.Len()-1); d <= 0 {
		t.Fatalf("cross-city distance = %v", d)
	}
}

func TestNewValidation(t *testing.T) {
	mkRegion := func(id int, nbs ...int) Region {
		pg := geo.Polygon{Ring: []geo.Point{
			{Lng: 0, Lat: 0}, {Lng: 1, Lat: 0}, {Lng: 1, Lat: 1}, {Lng: 0, Lat: 1},
		}}
		return Region{ID: id, Polygon: pg, Centroid: pg.Centroid(), Neighbors: nbs}
	}
	if _, err := New(nil); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := New([]Region{mkRegion(0, 1), mkRegion(1, 0)}); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	if _, err := New([]Region{mkRegion(5)}); err == nil {
		t.Error("non-dense IDs accepted")
	}
	if _, err := New([]Region{mkRegion(0, 0)}); err == nil {
		t.Error("self-neighbor accepted")
	}
	if _, err := New([]Region{mkRegion(0, 1), mkRegion(1)}); err == nil {
		t.Error("asymmetric adjacency accepted")
	}
	if _, err := New([]Region{mkRegion(0, 9), mkRegion(1, 0)}); err == nil {
		t.Error("unknown neighbor accepted")
	}
}

func TestGenerateSmall(t *testing.T) {
	for _, n := range []int{4, 10, 25, 100} {
		p, err := Generate(42, n, ShenzhenBBox)
		if err != nil {
			t.Fatalf("Generate(n=%d): %v", n, err)
		}
		if p.Len() != n {
			t.Fatalf("Generate(n=%d) produced %d regions", n, p.Len())
		}
		if !p.IsConnected() {
			t.Fatalf("Generate(n=%d) disconnected", n)
		}
	}
	if _, err := Generate(42, 3, ShenzhenBBox); err == nil {
		t.Error("Generate(n=3) should fail")
	}
}
