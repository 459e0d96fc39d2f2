package demand

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// The fast sampling path (alias destinations, triangle-fan points,
// equirectangular distances) powers the sharded engine. Contract: points
// land inside their region, distances track the haversine, and the fast and
// linear samplers agree in distribution even though their sample paths
// differ.

func TestRandPointInFastStaysInsideRegion(t *testing.T) {
	m := testModel(t)
	src := rng.New(31)
	for r := 0; r < m.part.Len(); r += 7 {
		poly := m.part.Region(r).Polygon
		for i := 0; i < 200; i++ {
			p := m.randPointInFast(src, r)
			if !poly.Contains(p) {
				t.Fatalf("region %d: fast point %v outside polygon", r, p)
			}
		}
	}
}

func TestRandPointInFastCoversTriangles(t *testing.T) {
	// The fan pick must not collapse onto one triangle: for a quad region,
	// both fan triangles have positive area and must both be hit.
	m := testModel(t)
	src := rng.New(8)
	tr := &m.tris[0]
	if len(tr.cum) < 2 {
		t.Skip("region 0 is not a quad")
	}
	hit := make([]int, len(tr.cum))
	for i := 0; i < 2000; i++ {
		p := m.randPointInFast(src, 0)
		// Classify by which side of the fan diagonal (apex, c[0]) p falls.
		a, c := tr.apex, tr.c[0]
		cross := (c.Lng-a.Lng)*(p.Lat-a.Lat) - (p.Lng-a.Lng)*(c.Lat-a.Lat)
		if cross > 0 {
			hit[0]++
		} else {
			hit[1]++
		}
	}
	for i, h := range hit {
		if h == 0 {
			t.Fatalf("triangle %d of the fan never sampled (hits %v)", i, hit)
		}
	}
}

func TestEquirectangularTracksHaversine(t *testing.T) {
	m := testModel(t)
	src := rng.New(17)
	for i := 0; i < 500; i++ {
		req := m.sampleOne(src, src.Intn(m.part.Len()), 600, true)
		want := geo.Distance(req.Origin, req.Dest) * RoadFactor
		got := req.DistanceKm
		// One cached cosine for the whole city: over Shenzhen's 0.4° of
		// latitude it is off by at most tan(22.65°)·0.2° ≈ 0.15%.
		if want > 1 && math.Abs(got-want)/want > 0.002 {
			t.Fatalf("equirectangular %v vs haversine %v at %v-%v: relative error %.5f",
				got, want, req.Origin, req.Dest, math.Abs(got-want)/want)
		}
	}
}

func TestFastAndLinearSamplersAgreeInDistribution(t *testing.T) {
	m := testModel(t)
	const origin, n = 0, 3000
	var fast, slow []Request
	fs, ss := rng.New(4), rng.New(5)
	for len(fast) < n {
		fast = m.SampleRegionScaledFast(fast, fs, origin, 480, 10, 25)
	}
	for len(slow) < n {
		slow = m.SampleRegionScaled(slow, ss, origin, 480, 10, 25)
	}
	mean := func(rs []Request) (dist, fare float64) {
		for _, r := range rs {
			dist += r.DistanceKm
			fare += r.Fare
		}
		return dist / float64(len(rs)), fare / float64(len(rs))
	}
	fd, ff := mean(fast)
	sd, sf := mean(slow)
	if math.Abs(fd-sd)/sd > 0.05 {
		t.Fatalf("mean trip distance: fast %.3f vs linear %.3f", fd, sd)
	}
	if math.Abs(ff-sf)/sf > 0.05 {
		t.Fatalf("mean fare: fast %.2f vs linear %.2f", ff, sf)
	}
	// Destination marginals: total-variation distance between the two
	// samplers' empirical destination distributions stays small.
	nreg := m.part.Len()
	fc, sc := make([]float64, nreg), make([]float64, nreg)
	for _, r := range fast {
		fc[r.DestRegion]++
	}
	for _, r := range slow {
		sc[r.DestRegion]++
	}
	tv := 0.0
	for i := range fc {
		tv += math.Abs(fc[i]/float64(len(fast)) - sc[i]/float64(len(slow)))
	}
	if tv /= 2; tv > 0.15 {
		t.Fatalf("destination distributions diverge: TV distance %.3f", tv)
	}
}
