package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Shenzhen city centre to Shenzhen Bao'an airport is roughly 28-32 km.
	center := Point{Lng: 114.06, Lat: 22.54}
	airport := Point{Lng: 113.81, Lat: 22.64}
	d := Distance(center, airport)
	if d < 25 || d > 35 {
		t.Fatalf("center-airport distance = %.2f km, want 25-35", d)
	}
}

func TestDistanceZero(t *testing.T) {
	p := Point{Lng: 114.0, Lat: 22.5}
	if d := Distance(p, p); d != 0 {
		t.Fatalf("Distance(p,p) = %v, want 0", d)
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(aLng, aLat, bLng, bLat float64) bool {
		a := Point{Lng: math.Mod(aLng, 180), Lat: math.Mod(aLat, 85)}
		b := Point{Lng: math.Mod(bLng, 180), Lat: math.Mod(bLat, 85)}
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPt := func() Point {
		return Point{Lng: 113.7 + rng.Float64()*0.9, Lat: 22.4 + rng.Float64()*0.5}
	}
	for i := 0; i < 500; i++ {
		a, b, c := randPt(), randPt(), randPt()
		if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestBBoxContains(t *testing.T) {
	b := BBox{MinLng: 0, MinLat: 0, MaxLng: 10, MaxLat: 5}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},
		{Point{10, 5}, true},
		{Point{-0.1, 2}, false},
		{Point{5, 5.1}, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBBoxOf(t *testing.T) {
	pts := []Point{{1, 2}, {-3, 4}, {5, -1}}
	b := BBoxOf(pts)
	want := BBox{MinLng: -3, MinLat: -1, MaxLng: 5, MaxLat: 4}
	if b != want {
		t.Fatalf("BBoxOf = %+v, want %+v", b, want)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bbox does not contain its own input point %v", p)
		}
	}
}

func TestBBoxOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BBoxOf(nil) did not panic")
		}
	}()
	BBoxOf(nil)
}

func TestPolygonContains(t *testing.T) {
	square := Polygon{Ring: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}}}
	if !square.Contains(Point{2, 2}) {
		t.Error("centre should be inside")
	}
	if square.Contains(Point{5, 2}) {
		t.Error("outside point reported inside")
	}
	if square.Contains(Point{-1, -1}) {
		t.Error("outside corner reported inside")
	}
	// Concave polygon (L shape).
	ell := Polygon{Ring: []Point{{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}}}
	if !ell.Contains(Point{1, 3}) {
		t.Error("point in L arm should be inside")
	}
	if ell.Contains(Point{3, 3}) {
		t.Error("point in L notch should be outside")
	}
}

func TestPolygonContainsDegenerate(t *testing.T) {
	if (Polygon{Ring: []Point{{0, 0}, {1, 1}}}).Contains(Point{0.5, 0.5}) {
		t.Error("2-vertex polygon cannot contain anything")
	}
	if (Polygon{}).Contains(Point{}) {
		t.Error("empty polygon cannot contain anything")
	}
}

func TestPolygonCentroid(t *testing.T) {
	square := Polygon{Ring: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}}}
	c := square.Centroid()
	if math.Abs(c.Lng-2) > 1e-12 || math.Abs(c.Lat-2) > 1e-12 {
		t.Fatalf("square centroid = %v, want (2,2)", c)
	}
	// Degenerate (zero-area) polygon falls back to vertex mean.
	line := Polygon{Ring: []Point{{0, 0}, {2, 0}, {4, 0}}}
	c = line.Centroid()
	if math.Abs(c.Lng-2) > 1e-12 || math.Abs(c.Lat) > 1e-12 {
		t.Fatalf("degenerate centroid = %v, want (2,0)", c)
	}
}

func TestPolygonCentroidInsideConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		// Random convex polygon: points on an ellipse.
		n := 3 + rng.Intn(8)
		cx, cy := rng.Float64()*100, rng.Float64()*100
		rx, ry := 1+rng.Float64()*10, 1+rng.Float64()*10
		ring := make([]Point, n)
		for i := 0; i < n; i++ {
			theta := 2 * math.Pi * float64(i) / float64(n)
			ring[i] = Point{Lng: cx + rx*math.Cos(theta), Lat: cy + ry*math.Sin(theta)}
		}
		pg := Polygon{Ring: ring}
		if c := pg.Centroid(); !pg.Contains(c) {
			t.Fatalf("centroid %v outside convex polygon %v", c, ring)
		}
	}
}

func TestGridIndexNearestBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{Lng: 113.7 + rng.Float64()*0.9, Lat: 22.4 + rng.Float64()*0.5}
	}
	idx := NewGridIndex(pts, nil, 12)
	for trial := 0; trial < 200; trial++ {
		q := Point{Lng: 113.7 + rng.Float64()*0.9, Lat: 22.4 + rng.Float64()*0.5}
		best, bestD := -1, math.Inf(1)
		for i, p := range pts {
			if d := Distance(q, p); d < bestD {
				best, bestD = i, d
			}
		}
		got, gotD := idx.Nearest(q)
		if got != best {
			t.Fatalf("Nearest(%v) = %d (%.4f km), brute force %d (%.4f km)", q, got, gotD, best, bestD)
		}
	}
}

func TestGridIndexKNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([]Point, 150)
	for i := range pts {
		pts[i] = Point{Lng: rng.Float64(), Lat: rng.Float64()}
	}
	idx := NewGridIndex(pts, nil, 10)
	q := Point{Lng: 0.5, Lat: 0.5}
	for _, k := range []int{1, 3, 5, 20, 150, 400} {
		res := idx.KNearest(q, k)
		wantLen := k
		if wantLen > len(pts) {
			wantLen = len(pts)
		}
		if len(res) != wantLen {
			t.Fatalf("KNearest k=%d returned %d results", k, len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].DistKm < res[i-1].DistKm {
				t.Fatalf("KNearest k=%d results not sorted at %d", k, i)
			}
		}
	}
	// Cross-check top-5 against brute force.
	type cand struct {
		idx int
		d   float64
	}
	var all []cand
	for i, p := range pts {
		all = append(all, cand{i, Distance(q, p)})
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].d < all[i].d {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	res := idx.KNearest(q, 5)
	for i := 0; i < 5; i++ {
		if res[i].Label != all[i].idx {
			t.Fatalf("KNearest[%d] = %d, brute force %d", i, res[i].Label, all[i].idx)
		}
	}
}

func TestGridIndexKNearestZeroAndNegative(t *testing.T) {
	idx := NewGridIndex([]Point{{0, 0}}, nil, 4)
	if res := idx.KNearest(Point{}, 0); res != nil {
		t.Fatalf("k=0 should return nil, got %v", res)
	}
	if res := idx.KNearest(Point{}, -3); res != nil {
		t.Fatalf("k<0 should return nil, got %v", res)
	}
}

func TestGridIndexCustomLabels(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}}
	idx := NewGridIndex(pts, []int{100, 200}, 4)
	label, _ := idx.Nearest(Point{0.1, 0.1})
	if label != 100 {
		t.Fatalf("Nearest label = %d, want 100", label)
	}
	label, _ = idx.Nearest(Point{0.9, 0.9})
	if label != 200 {
		t.Fatalf("Nearest label = %d, want 200", label)
	}
}

func TestGridIndexPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty points", func() { NewGridIndex(nil, nil, 4) })
	mustPanic("label mismatch", func() { NewGridIndex([]Point{{0, 0}}, []int{1, 2}, 4) })
}

// TestGridIndexKNearestBruteForceProperty pins the ring-termination bound:
// across random point sets, grid resolutions, and deliberately skewed
// extents (tall/flat boxes stress the per-axis distance bound), KNearest
// must return exactly the brute-force k-nearest set. The old fixed
// guard-ring rule failed this whenever the first satisfying ring was 0 or
// the cell aspect let a nearer point hide two rings out.
func TestGridIndexKNearestBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []struct{ w, h float64 }{
		{0.9, 0.5},   // Shenzhen-like
		{0.9, 0.05},  // flat: cellH ≪ cellW
		{0.05, 0.9},  // tall: cellW ≪ cellH
		{0.01, 0.01}, // dense micro-box
	}
	for trial := 0; trial < 40; trial++ {
		sh := shapes[trial%len(shapes)]
		n := 2 + rng.Intn(300)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Lng: 113.7 + rng.Float64()*sh.w,
				Lat: 22.4 + rng.Float64()*sh.h,
			}
			if rng.Intn(4) == 0 && i > 0 {
				// Cluster: duplicate-ish points sharing a cell.
				pts[i] = Point{Lng: pts[i-1].Lng + rng.Float64()*1e-4, Lat: pts[i-1].Lat}
			}
		}
		cells := 1 + rng.Intn(30)
		idx := NewGridIndex(pts, nil, cells)
		for q := 0; q < 25; q++ {
			query := Point{
				Lng: 113.7 + rng.Float64()*sh.w,
				Lat: 22.4 + rng.Float64()*sh.h,
			}
			k := 1 + rng.Intn(8)
			got := idx.KNearest(query, k)
			want := bruteKNearest(pts, query, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: KNearest(%v, %d) returned %d results, want %d",
					trial, query, k, len(got), len(want))
			}
			for i := range got {
				// Compare by distance, not label: exact ties may order freely.
				if got[i].DistKm != want[i].DistKm {
					t.Fatalf("trial %d (n=%d cells=%d): KNearest(%v, %d)[%d] = label %d at %.9f km, brute force %.9f km",
						trial, n, cells, query, k, i, got[i].Label, got[i].DistKm, want[i].DistKm)
				}
			}
		}
	}
}

// bruteKNearest is the O(n log n) reference the grid index must match.
func bruteKNearest(pts []Point, q Point, k int) []Neighbor {
	all := make([]Neighbor, len(pts))
	for i, p := range pts {
		all[i] = Neighbor{Label: i, DistKm: Distance(q, p)}
	}
	sortNeighbors(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// TestGridIndexKNearestIntoMatchesKNearest pins the Into variant to the
// allocating API byte for byte, including buffer reuse across queries.
func TestGridIndexKNearestIntoMatchesKNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 120)
	for i := range pts {
		pts[i] = Point{Lng: 113.7 + rng.Float64()*0.9, Lat: 22.4 + rng.Float64()*0.5}
	}
	idx := NewGridIndex(pts, nil, 16)
	var buf []Neighbor
	for trial := 0; trial < 100; trial++ {
		q := Point{Lng: 113.7 + rng.Float64()*0.9, Lat: 22.4 + rng.Float64()*0.5}
		k := 1 + rng.Intn(7)
		want := idx.KNearest(q, k)
		buf = idx.KNearestInto(q, k, buf)
		if len(buf) != len(want) {
			t.Fatalf("KNearestInto returned %d results, KNearest %d", len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("KNearestInto[%d] = %+v, KNearest %+v", i, buf[i], want[i])
			}
		}
	}
}
