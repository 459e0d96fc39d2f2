// Package demand models spatiotemporal passenger travel demand: where and
// when trip requests appear, where they go, and what they pay.
//
// The model reproduces the structure behind the paper's data-driven findings
// (Section II-C): per-trip revenue varies strongly across regions and hours
// (Fig. 7, several CNY to over 100 CNY, airport always high), demand has
// morning and evening rush peaks, and low-demand suburbs force long cruise
// times after charging (Figs. 5-6). Regions are typed by archetype and the
// origin-destination flow follows a gravity model.
package demand

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/partition"
	"repro/internal/pricing"
	"repro/internal/rng"
)

// Archetype classifies a region's land use, which drives its demand curve
// and trip-length distribution.
type Archetype int

// Region archetypes.
const (
	Downtown Archetype = iota
	Residential
	Suburb
	Industrial
	Airport
	numArchetypes
)

// String implements fmt.Stringer.
func (a Archetype) String() string {
	switch a {
	case Downtown:
		return "downtown"
	case Residential:
		return "residential"
	case Suburb:
		return "suburb"
	case Industrial:
		return "industrial"
	case Airport:
		return "airport"
	default:
		return fmt.Sprintf("Archetype(%d)", int(a))
	}
}

// hourlyShapes holds each archetype's demand multiplier over the 24 hours of
// the day. Rate indexes it directly; archetypes outside the table get the
// flat curve of 1s.
var hourlyShapes = [numArchetypes][24]float64{
	// Strong morning and evening rush, busy evenings.
	Downtown: {0.3, 0.2, 0.15, 0.1, 0.15, 0.3, 0.8, 1.6, 2.0, 1.5, 1.2, 1.2, 1.3, 1.2, 1.1, 1.2, 1.5, 1.9, 2.1, 1.8, 1.5, 1.2, 0.8, 0.5},
	// Morning outflow peak, evening return.
	Residential: {0.3, 0.2, 0.1, 0.1, 0.2, 0.5, 1.4, 2.2, 1.8, 1.0, 0.8, 0.8, 0.9, 0.8, 0.8, 0.9, 1.1, 1.4, 1.7, 1.5, 1.2, 1.0, 0.7, 0.4},
	// Flat and thin.
	Suburb: {0.2, 0.15, 0.1, 0.1, 0.15, 0.3, 0.7, 1.1, 1.2, 1.0, 0.9, 0.9, 1.0, 0.9, 0.9, 0.9, 1.0, 1.2, 1.2, 1.0, 0.8, 0.6, 0.4, 0.3},
	// Shift-change spikes.
	Industrial: {0.2, 0.1, 0.1, 0.1, 0.2, 0.6, 1.5, 1.9, 1.3, 0.8, 0.7, 0.8, 1.1, 0.9, 0.7, 0.8, 1.2, 1.8, 1.5, 0.9, 0.6, 0.4, 0.3, 0.2},
	// Busy through the day and late evening (arrivals).
	Airport: {0.8, 0.5, 0.3, 0.3, 0.5, 0.9, 1.2, 1.4, 1.5, 1.4, 1.3, 1.3, 1.3, 1.3, 1.4, 1.4, 1.4, 1.5, 1.5, 1.5, 1.5, 1.4, 1.2, 1.0},
}

// baseIntensity returns the relative request volume of an archetype (mean
// requests per hour per region before fleet scaling).
func baseIntensity(a Archetype) float64 {
	switch a {
	case Downtown:
		return 10.0
	case Residential:
		return 5.0
	case Suburb:
		return 1.2
	case Industrial:
		return 2.5
	case Airport:
		return 8.0
	default:
		return 1.0
	}
}

// attractiveness returns the gravity-model destination weight.
func attractiveness(a Archetype) float64 {
	switch a {
	case Downtown:
		return 8.0
	case Residential:
		return 5.0
	case Suburb:
		return 1.5
	case Industrial:
		return 2.0
	case Airport:
		return 4.0
	default:
		return 1.0
	}
}

// RegionProfile is the demand configuration of one region.
type RegionProfile struct {
	Region         int
	Archetype      Archetype
	BasePerHour    float64 // mean requests per hour before hourly shaping
	Attractiveness float64 // gravity-model destination weight
}

// Request is one passenger trip request.
type Request struct {
	TimeMin      int // absolute simulation minute
	Origin       geo.Point
	OriginRegion int
	Dest         geo.Point
	DestRegion   int
	DistanceKm   float64 // road distance
	DurationMin  float64 // expected on-board duration
	Fare         float64 // CNY
}

// Model generates requests for a partitioned city.
type Model struct {
	part     *partition.Partition
	profiles []RegionProfile
	fares    pricing.FareSchedule
	// Scale multiplies every region's base intensity; the synthetic city
	// uses it to match demand to fleet size.
	Scale float64

	// destAlias[o] caches the alias table of origin o's gravity weights
	// (gravityRow) for the O(1) destination draw used by
	// SampleRegionScaledFast.
	destAlias []rng.Alias
	// tris[o] caches region o's triangle fan for O(1) point placement on
	// the fast sampling path.
	tris []regionTris
	// cosMidLat caches the cosine of the city's mid latitude for the fast
	// path's equirectangular trip distances.
	cosMidLat float64
	// meanDistKm[o] caches the gravity-weighted mean haversine trip
	// distance from origin o, used for fast expected-fare queries.
	meanDistKm []float64
}

// RoadFactor converts haversine distance to road distance.
const RoadFactor = 1.35

// SpeedKmh returns average traffic speed at the given hour: slower in the
// rush hours, faster overnight.
func SpeedKmh(hour int) float64 {
	h := ((hour % 24) + 24) % 24
	switch {
	case h >= 7 && h < 10:
		return 22
	case h >= 17 && h < 20:
		return 20
	case h >= 23 || h < 6:
		return 42
	default:
		return 30
	}
}

// NewShenzhenLike builds a demand model over part with archetypes assigned
// by geography: the innermost regions are downtown, surrounded by
// residential, then industrial/suburban fringe, plus one airport region in
// the far northwest (as in Shenzhen, where Bao'an airport sits away from the
// centre).
func NewShenzhenLike(seed int64, part *partition.Partition) *Model {
	src := rng.SplitStable(seed, "demand-archetypes")
	n := part.Len()
	center := part.BBox().Center()

	// Rank regions by distance from centre.
	type rd struct {
		id int
		d  float64
	}
	ranked := make([]rd, n)
	var maxD float64
	for i := 0; i < n; i++ {
		d := geo.Distance(part.Region(i).Centroid, center)
		ranked[i] = rd{i, d}
		if d > maxD {
			maxD = d
		}
	}

	profiles := make([]RegionProfile, n)
	// Airport: the region closest to the northwest corner of the bbox.
	b := part.BBox()
	nw := geo.Point{Lng: b.MinLng + 0.1*b.Width(), Lat: b.MinLat + 0.8*b.Height()}
	airportID, bestD := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		if d := geo.Distance(part.Region(i).Centroid, nw); d < bestD {
			airportID, bestD = i, d
		}
	}

	for i := 0; i < n; i++ {
		frac := ranked[i].d / maxD
		var a Archetype
		switch {
		case i == airportID:
			a = Airport
		case frac < 0.25:
			a = Downtown
		case frac < 0.55:
			a = Residential
		case frac < 0.8:
			if src.Bool(0.4) {
				a = Industrial
			} else {
				a = Suburb
			}
		default:
			a = Suburb
		}
		base := baseIntensity(a) * src.Uniform(0.7, 1.3)
		profiles[i] = RegionProfile{
			Region:         i,
			Archetype:      a,
			BasePerHour:    base,
			Attractiveness: attractiveness(a) * src.Uniform(0.8, 1.2),
		}
	}

	m := &Model{part: part, profiles: profiles, fares: pricing.ShenzhenFares(), Scale: 1}
	m.buildGravity()
	return m
}

// New builds a model from explicit profiles (profiles[i].Region must be i).
func New(part *partition.Partition, profiles []RegionProfile, fares pricing.FareSchedule) (*Model, error) {
	if len(profiles) != part.Len() {
		return nil, fmt.Errorf("demand: %d profiles for %d regions", len(profiles), part.Len())
	}
	for i, p := range profiles {
		if p.Region != i {
			return nil, fmt.Errorf("demand: profile %d has region %d", i, p.Region)
		}
		if p.BasePerHour < 0 || p.Attractiveness < 0 {
			return nil, fmt.Errorf("demand: profile %d has negative parameters", i)
		}
	}
	m := &Model{part: part, profiles: append([]RegionProfile(nil), profiles...), fares: fares, Scale: 1}
	m.buildGravity()
	return m, nil
}

// buildGravity precomputes each origin's destination alias table and mean
// trip distance from its gravity weights (gravityRow), filled one origin at
// a time into one reused row: the model keeps no regions × regions matrix.
func (m *Model) buildGravity() {
	n := m.part.Len()
	m.destAlias = make([]rng.Alias, n)
	m.meanDistKm = make([]float64, n)
	ws := make([]float64, n)
	for o := 0; o < n; o++ {
		m.meanDistKm[o] = m.gravityRow(o, ws)
		m.destAlias[o] = rng.NewAlias(ws)
	}
	m.buildTris()
}

// gravityRow fills ws, one entry per region, with the destination weights
// from origin o, w(o,d) ∝ A_d / (1 + 0.05·dist²), the origin itself at a
// tenth of that (short intra-region trips are rare but possible), and
// returns their weighted mean distance in km (0 when no weight is
// positive).
func (m *Model) gravityRow(o int, ws []float64) (meanDistKm float64) {
	var wSum, wdSum float64
	for d := range ws {
		dist := m.part.Distance(o, d)
		w := m.profiles[d].Attractiveness / (1 + 0.05*dist*dist)
		if d == o {
			w *= 0.1
		}
		ws[d] = w
		wSum += w
		wdSum += w * dist
	}
	if wSum > 0 {
		return wdSum / wSum
	}
	return 0
}

// regionTris is a region polygon's triangle fan: triangle i is (apex, b[i],
// c[i]), with cum the prefix sums of the triangles' lng-lat areas.
type regionTris struct {
	apex  geo.Point
	b, c  []geo.Point
	cum   []float64
	total float64
}

// buildTris fans every region polygon from its first vertex. The partition's
// regions are convex (jittered grid quads), so the fan tiles each polygon
// exactly and picking a triangle by area then a uniform point inside it is a
// uniform draw over the region — the O(1) replacement for the fast path's
// rejection sampling.
func (m *Model) buildTris() {
	n := m.part.Len()
	m.tris = make([]regionTris, n)
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	for r := 0; r < n; r++ {
		for _, p := range m.part.Region(r).Polygon.Ring {
			minLat = math.Min(minLat, p.Lat)
			maxLat = math.Max(maxLat, p.Lat)
		}
	}
	m.cosMidLat = 1
	if minLat <= maxLat {
		m.cosMidLat = math.Cos((minLat + maxLat) / 2 * math.Pi / 180)
	}
	for r := 0; r < n; r++ {
		ring := m.part.Region(r).Polygon.Ring
		if len(ring) < 3 {
			continue
		}
		tr := &m.tris[r]
		tr.apex = ring[0]
		for i := 1; i < len(ring)-1; i++ {
			b, cc := ring[i], ring[i+1]
			area := math.Abs((b.Lng-tr.apex.Lng)*(cc.Lat-tr.apex.Lat) - (cc.Lng-tr.apex.Lng)*(b.Lat-tr.apex.Lat))
			tr.b = append(tr.b, b)
			tr.c = append(tr.c, cc)
			tr.total += area
			tr.cum = append(tr.cum, tr.total)
		}
	}
}

// randPointInFast places a uniform point in region via its triangle fan
// with exactly two uniform draws and no rejection loop: the first draw
// picks the triangle by area, and its position within the chosen area
// segment — uniform conditional on the pick — is rescaled into the first
// barycentric coordinate. Used only on the fast sampling path; the draw
// count and therefore the stream differ from randPointIn.
func (m *Model) randPointInFast(src *rng.Source, region int) geo.Point {
	tr := &m.tris[region]
	if tr.total <= 0 {
		return m.part.Region(region).Centroid
	}
	u := src.Float64()
	i := 0
	if len(tr.cum) > 1 {
		x := u * tr.total
		for i < len(tr.cum)-1 && tr.cum[i] <= x {
			i++
		}
		lo := 0.0
		if i > 0 {
			lo = tr.cum[i-1]
		}
		u = (x - lo) / (tr.cum[i] - lo)
	}
	v := src.Float64()
	if u+v > 1 {
		u, v = 1-u, 1-v
	}
	a, b, cc := tr.apex, tr.b[i], tr.c[i]
	return geo.Point{
		Lng: a.Lng + u*(b.Lng-a.Lng) + v*(cc.Lng-a.Lng),
		Lat: a.Lat + u*(b.Lat-a.Lat) + v*(cc.Lat-a.Lat),
	}
}

// ExpectedFare returns the gravity-weighted expected per-trip fare from
// origin at the given hour, computed analytically from the cached mean trip
// distance. It is the fast estimate used in policy observation features;
// MeanFare is the Monte-Carlo reference.
func (m *Model) ExpectedFare(origin, hour int) float64 {
	distKm := m.meanDistKm[origin] * RoadFactor
	if distKm < 1 {
		distKm = 1
	}
	durMin := distKm / SpeedKmh(hour) * 60
	return m.fares.Fare(distKm, durMin, hour)
}

// Partition returns the underlying partition.
func (m *Model) Partition() *partition.Partition { return m.part }

// Profile returns the demand profile of a region.
func (m *Model) Profile(region int) RegionProfile { return m.profiles[region] }

// Rate returns the expected number of requests per minute in region at
// absolute minute t.
func (m *Model) Rate(region, tMin int) float64 {
	hour := (tMin / 60) % 24
	if hour < 0 {
		hour += 24
	}
	p := &m.profiles[region]
	shape := 1.0
	if p.Archetype >= 0 && p.Archetype < numArchetypes {
		shape = hourlyShapes[p.Archetype][hour]
	}
	return m.Scale * p.BasePerHour * shape / 60
}

// ExpectedSlotDemand returns the expected number of requests in region over
// a slot of slotMin minutes starting at tMin — the "predicted number of
// passengers at the next time slot" feature of the paper's global state.
//
// Rate depends on the minute only through its clock hour, so it is looked
// up once per hour the slot covers and added once per minute, in minute
// order: the sum is bit-identical to adding Rate minute by minute.
func (m *Model) ExpectedSlotDemand(region, tMin, slotMin int) float64 {
	var sum, rate float64
	hour := 0
	for dm := 0; dm < slotMin; dm++ {
		t := tMin + dm
		if h := t / 60; dm == 0 || h != hour {
			rate, hour = m.Rate(region, t), h
		}
		sum += rate
	}
	return sum
}

// TotalExpectedPerDay returns the expected total requests per day across all
// regions at the current scale. The synthetic city uses it to calibrate
// Scale against the fleet size.
func (m *Model) TotalExpectedPerDay() float64 {
	var sum float64
	for r := 0; r < m.part.Len(); r++ {
		for h := 0; h < 24; h++ {
			sum += m.Rate(r, h*60) * 60
		}
	}
	return sum
}

// randPointIn returns a point near the centroid of region, inside its
// polygon when possible.
func (m *Model) randPointIn(src *rng.Source, region int) geo.Point {
	r := m.part.Region(region)
	bb := r.Polygon.BBox()
	for try := 0; try < 8; try++ {
		p := geo.Point{
			Lng: src.Uniform(bb.MinLng, bb.MaxLng),
			Lat: src.Uniform(bb.MinLat, bb.MaxLat),
		}
		if r.Polygon.Contains(p) {
			return p
		}
	}
	return r.Centroid
}

// SampleRegionScaled appends the slot's requests for a single region to dst,
// drawing only from src: one Poisson count draw, then per request one
// arrival-offset draw plus the trip draws. factor scales the expected demand
// (1 = unperturbed, <= 0 silences the region without skipping the count
// draw). This is the linear reference form — exact haversine distances,
// rejection-sampled points, a linear scan of the origin's gravity weights
// computed per request — that the fast sampler's distributions are tested
// against; the simulator samples with SampleRegionScaledFast.
func (m *Model) SampleRegionScaled(dst []Request, src *rng.Source, region, tMin, slotMin int, factor float64) []Request {
	return m.sampleRegion(dst, src, region, tMin, slotMin, factor, false)
}

// SampleRegionScaledFast is SampleRegionScaled on O(1)-per-request cached
// machinery: destinations come from a gravity alias table, points from the
// region's triangle fan, and trip distances from the equirectangular
// approximation. It consumes a different number of draws per request than
// the linear form, so realizations differ — same marginal distributions,
// different sample path. The simulator calls it with one source per region,
// which makes the realization independent of how regions are grouped into
// shards.
func (m *Model) SampleRegionScaledFast(dst []Request, src *rng.Source, region, tMin, slotMin int, factor float64) []Request {
	return m.sampleRegion(dst, src, region, tMin, slotMin, factor, true)
}

func (m *Model) sampleRegion(dst []Request, src *rng.Source, region, tMin, slotMin int, factor float64, fast bool) []Request {
	mean := m.ExpectedSlotDemand(region, tMin, slotMin)
	if factor > 0 {
		mean *= factor
	} else {
		mean = 0
	}
	count := src.Poisson(mean)
	for i := 0; i < count; i++ {
		dst = append(dst, m.sampleOne(src, region, tMin+src.Intn(maxInt(slotMin, 1)), fast))
	}
	return dst
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (m *Model) sampleOne(src *rng.Source, origin, tMin int, fast bool) Request {
	var dest int
	var op, dp geo.Point
	var distKm float64
	if fast {
		dest = src.AliasChoice(m.destAlias[origin])
		op = m.randPointInFast(src, origin)
		dp = m.randPointInFast(src, dest)
		// Equirectangular distance with the city-wide cached cosine: at
		// intra-city extents it matches the haversine to within 0.2%,
		// far inside RoadFactor's fudge.
		const degToRad = math.Pi / 180
		dLat := (dp.Lat - op.Lat) * degToRad
		dLng := (dp.Lng - op.Lng) * degToRad * m.cosMidLat
		distKm = geo.EarthRadiusKm * math.Sqrt(dLat*dLat+dLng*dLng) * RoadFactor
	} else {
		ws := make([]float64, m.part.Len())
		m.gravityRow(origin, ws)
		dest = src.WeightedChoice(ws)
		op = m.randPointIn(src, origin)
		dp = m.randPointIn(src, dest)
		distKm = geo.Distance(op, dp) * RoadFactor
	}
	if distKm < 0.5 {
		distKm = 0.5 + src.Uniform(0, 1.0) // minimum meaningful trip
	}
	hour := (tMin / 60) % 24
	speed := SpeedKmh(hour)
	durMin := distKm / speed * 60 * src.Uniform(0.9, 1.2)
	fare := m.fares.Fare(distKm, durMin, hour)
	return Request{
		TimeMin:      tMin,
		Origin:       op,
		OriginRegion: origin,
		Dest:         dp,
		DestRegion:   dest,
		DistanceKm:   distKm,
		DurationMin:  durMin,
		Fare:         fare,
	}
}

// MeanFare estimates the mean per-trip fare from region at the given hour by
// Monte-Carlo sampling. Figures use it; policies use learned estimates.
func (m *Model) MeanFare(src *rng.Source, region, hour, samples int) float64 {
	if samples <= 0 {
		samples = 50
	}
	var sum float64
	for i := 0; i < samples; i++ {
		sum += m.sampleOne(src, region, hour*60, false).Fare
	}
	return sum / float64(samples)
}

// Archetypes returns the archetype of every region.
func (m *Model) Archetypes() []Archetype {
	out := make([]Archetype, len(m.profiles))
	for i, p := range m.profiles {
		out[i] = p.Archetype
	}
	return out
}
