package sim

import (
	"math"
	"testing"

	"repro/internal/synth"
)

// referenceObserver builds observations without the region-block cache:
// every feature is computed from the environment state on every call, the
// way Observe assembled them before blocks existed. It keeps its own
// stale-feature memory and counts supply itself, so it shares no cached
// state with the Core under test.
type referenceObserver struct {
	stale    [][]float64
	staleHit int // stale observations answered from the frozen copy
}

func (r *referenceObserver) reset() { r.stale, r.staleHit = nil, 0 }

func (r *referenceObserver) observe(c *Core, id int) Observation {
	t := &c.taxis[id]
	var f []float64
	now := c.nowMin
	dayFrac := float64(now%(24*60)) / (24 * 60)

	f = append(f, math.Sin(2*math.Pi*dayFrac), math.Cos(2*math.Pi*dayFrac))

	meanPE, _ := c.FleetPEStats()
	peGap := (c.PESoFar(id) - meanPE) / 50
	vacancyAge := float64(now-t.vacantSinceMin) / 60
	f = append(f, t.batt.SoC, clampF(peGap, -2, 2), clampF(vacancyAge, 0, 4))

	supply := make([]int, c.city.Partition.Len())
	for i := range c.taxis {
		if c.taxis[i].state == Cruising {
			supply[c.taxis[i].region]++
		}
	}
	f = refRegionTriple(c, f, t.region, supply, now)

	nbs := c.city.Partition.Region(t.region).Neighbors
	for i := 0; i < MaxNeighbors; i++ {
		if i < len(nbs) {
			f = refRegionTriple(c, f, nbs[i], supply, now)
		} else {
			f = append(f, 0, 0, 0)
		}
	}

	ns := c.nearStations[t.region]
	for k := 0; k < KStations; k++ {
		if k < len(ns) {
			st := c.stations[ns[k].Label]
			f = append(f,
				float64(st.Free())/20,
				float64(st.QueueLen())/10,
				ns[k].DistKm/10,
				c.city.Tariff.Rate(c.city.Tariff.BandAt(now))/2,
			)
		} else {
			f = append(f, 0, 0, 0, 0)
		}
	}

	var vacant, queued int
	for i := range c.taxis {
		switch c.taxis[i].state {
		case Cruising:
			vacant++
		case Queued, ToStation:
			queued++
		}
	}
	n := float64(len(c.taxis))
	band := float64(c.city.Tariff.BandAt(now)) / 2
	f = append(f, float64(vacant)/n, float64(queued)/n, band)

	if c.hooks != nil {
		if r.stale == nil {
			r.stale = make([][]float64, len(c.taxis))
		}
		if c.hooks.ObsStale(t.region, now) {
			if cached := r.stale[id]; cached != nil {
				f = append(f[:0], cached...)
				r.staleHit++
			}
		} else {
			r.stale[id] = append(r.stale[id][:0], f...)
		}
	}
	return Observation{Features: f, Mask: c.ValidMask(id)}
}

// refRegionTriple appends the (supply, forecast, fare) features of a region
// to f, computed afresh from supply and the clock.
func refRegionTriple(c *Core, f []float64, region int, supply []int, now int) []float64 {
	var fc float64
	if !c.opts.NoForecastFeature {
		fc = c.city.Demand.ExpectedSlotDemand(region, now, c.slotLen)
	}
	fare := c.city.Demand.ExpectedFare(region, hourAt(now))
	return append(f, float64(supply[region])/10, fc/10, fare/100)
}

// TestObserveMatchesUncachedReference pins the region-block cache behind
// the float32 rows of ObserveRows bit for bit against the uncached
// reference builder: every feature and the mask of every vacant taxi, over
// many slots, under a GPS-dropout hook (the stale path) and under the
// forecast ablation.
// Each setup then resets with a different seed and compares again, which
// fails if invalidateCaches leaves the previous episode's blocks live.
func TestObserveMatchesUncachedReference(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(61))
	if err != nil {
		t.Fatal(err)
	}
	dropout := stubHooks{stale: func(r, m int) bool { return r%3 == 0 && (m/10)%4 == 2 }}
	cases := []struct {
		name  string
		opts  func(*Options)
		hooks Hooks
	}{
		{name: "gps-dropout", opts: func(*Options) {}, hooks: dropout},
		{name: "no-forecast-feature", opts: func(o *Options) { o.NoForecastFeature = true }},
	}
	const slots = 12
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(1)
			tc.opts(&opts)
			e := New(city, opts, 61)
			if tc.hooks != nil {
				e.SetHooks(tc.hooks)
			}
			ref := &referenceObserver{}
			for _, seed := range []int64{61, 62} {
				e.Reset(seed)
				ref.reset()
				compared, forecasts := 0, 0
				for s := 0; s < slots; s++ {
					n, fc := compareObservations(t, e, ref, seed)
					compared, forecasts = compared+n, forecasts+fc
					e.Step(driveActions(e))
				}
				if compared < slots {
					t.Fatalf("seed %d: only %d observations compared over %d slots", seed, compared, slots)
				}
				if forecasts == 0 != opts.NoForecastFeature {
					t.Fatalf("seed %d: %d observations with a nonzero forecast feature", seed, forecasts)
				}
				if tc.hooks != nil && ref.staleHit == 0 {
					t.Fatalf("seed %d: the dropout hook never served a frozen observation", seed)
				}
			}
		})
	}
}

// compareObservations checks every vacant taxi's observation against the
// reference: the float32 row and mask ObserveRows writes. It returns how
// many it compared and how many of those carry a nonzero own-region
// forecast.
func compareObservations(t *testing.T, e *Core, ref *referenceObserver, seed int64) (compared, forecasts int) {
	t.Helper()
	ids := e.VacantTaxis()
	rows := make([]float32, len(ids)*FeatureSize)
	masks := make([][NumActions]bool, len(ids))
	e.PrepareObserve(ids)
	e.ObserveRows(ids, rows, masks)
	for i, id := range ids {
		want := ref.observe(e, id)
		for k, x := range want.Features {
			if got := rows[i*FeatureSize+k]; math.Float32bits(got) != math.Float32bits(float32(x)) {
				t.Fatalf("seed %d slot %d taxi %d feature %d: ObserveRows %v, reference %v",
					seed, e.Slot(), id, k, got, float32(x))
			}
		}
		if masks[i] != want.Mask {
			t.Fatalf("seed %d slot %d taxi %d: ObserveRows mask %v, reference %v", seed, e.Slot(), id, masks[i], want.Mask)
		}
		if want.Features[forecastFeatureIndex] != 0 {
			forecasts++
		}
	}
	return len(ids), forecasts
}

// driveActions picks a deterministic valid action per vacant taxi so taxis
// move between regions and visit stations, varying the region state.
func driveActions(e *Core) map[int]Action {
	acts := map[int]Action{}
	for _, id := range e.VacantTaxis() {
		mask := e.ValidMask(id)
		idx := (id + e.Slot()) % NumActions
		if mask[idx] {
			acts[id] = ActionFromIndex(idx)
		}
	}
	return acts
}
