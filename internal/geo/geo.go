// Package geo provides the geometric primitives used throughout FairMove:
// geographic points, haversine distances, bounding boxes, polygons, and a
// uniform-grid spatial index. All coordinates are WGS-84 degrees
// (longitude, latitude), matching the GPS record schema of the paper.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by Distance.
const EarthRadiusKm = 6371.0088

// Point is a geographic coordinate in degrees.
type Point struct {
	Lng float64
	Lat float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lng, p.Lat)
}

// Distance returns the haversine great-circle distance between p and q in
// kilometres.
func Distance(p, q Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLat := (q.Lat - p.Lat) * degToRad
	dLng := (q.Lng - p.Lng) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLng*sinLng
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// BBox is an axis-aligned bounding box in degree space.
type BBox struct {
	MinLng, MinLat, MaxLng, MaxLat float64
}

// Contains reports whether p lies inside or on the boundary of b.
func (b BBox) Contains(p Point) bool {
	return p.Lng >= b.MinLng && p.Lng <= b.MaxLng &&
		p.Lat >= b.MinLat && p.Lat <= b.MaxLat
}

// Center returns the centre point of b.
func (b BBox) Center() Point {
	return Point{Lng: (b.MinLng + b.MaxLng) / 2, Lat: (b.MinLat + b.MaxLat) / 2}
}

// Width returns the longitudinal extent of b in degrees.
func (b BBox) Width() float64 { return b.MaxLng - b.MinLng }

// Height returns the latitudinal extent of b in degrees.
func (b BBox) Height() float64 { return b.MaxLat - b.MinLat }

// Expand grows the box by margin degrees on every side.
func (b BBox) Expand(margin float64) BBox {
	return BBox{
		MinLng: b.MinLng - margin, MinLat: b.MinLat - margin,
		MaxLng: b.MaxLng + margin, MaxLat: b.MaxLat + margin,
	}
}

// BBoxOf returns the bounding box of the given points. It panics if pts is
// empty.
func BBoxOf(pts []Point) BBox {
	if len(pts) == 0 {
		panic("geo: BBoxOf of empty point set")
	}
	b := BBox{
		MinLng: pts[0].Lng, MinLat: pts[0].Lat,
		MaxLng: pts[0].Lng, MaxLat: pts[0].Lat,
	}
	for _, p := range pts[1:] {
		b.MinLng = math.Min(b.MinLng, p.Lng)
		b.MinLat = math.Min(b.MinLat, p.Lat)
		b.MaxLng = math.Max(b.MaxLng, p.Lng)
		b.MaxLat = math.Max(b.MaxLat, p.Lat)
	}
	return b
}

// Polygon is a simple (non-self-intersecting) polygon given as a ring of
// vertices. The ring need not be explicitly closed.
type Polygon struct {
	Ring []Point
}

// Contains reports whether p lies inside the polygon using the even-odd
// ray-casting rule. Points exactly on an edge may be classified either way.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg.Ring)
	if n < 3 {
		return false
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg.Ring[i], pg.Ring[j]
		if (vi.Lat > p.Lat) != (vj.Lat > p.Lat) {
			x := vi.Lng + (p.Lat-vi.Lat)/(vj.Lat-vi.Lat)*(vj.Lng-vi.Lng)
			if p.Lng < x {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// Centroid returns the area-weighted centroid of the polygon. For degenerate
// polygons it falls back to the vertex mean.
func (pg Polygon) Centroid() Point {
	n := len(pg.Ring)
	if n == 0 {
		return Point{}
	}
	var area, cx, cy float64
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg.Ring[i], pg.Ring[j]
		cross := vj.Lng*vi.Lat - vi.Lng*vj.Lat
		area += cross
		cx += (vj.Lng + vi.Lng) * cross
		cy += (vj.Lat + vi.Lat) * cross
		j = i
	}
	if math.Abs(area) < 1e-15 {
		var sx, sy float64
		for _, v := range pg.Ring {
			sx += v.Lng
			sy += v.Lat
		}
		return Point{Lng: sx / float64(n), Lat: sy / float64(n)}
	}
	area /= 2
	return Point{Lng: cx / (6 * area), Lat: cy / (6 * area)}
}

// BBox returns the bounding box of the polygon.
func (pg Polygon) BBox() BBox { return BBoxOf(pg.Ring) }
