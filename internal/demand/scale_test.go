package demand

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// A nil scale and an all-ones scale must consume the identical random stream:
// unperturbed scenarios replay the exact baseline demand realization.
func TestSampleScaledIdentityMatchesSample(t *testing.T) {
	m := testModel(t)
	a := sampleCity(m, rng.New(7), 8*60, 10, nil)
	b := sampleCity(m, rng.New(7), 8*60, 10, func(int) float64 { return 1 })
	if !reflect.DeepEqual(stripIDs(a), stripIDs(b)) {
		t.Fatalf("identity scale diverged: %d vs %d requests", len(a), len(b))
	}
}

func TestSampleScaledSurgeAndDrought(t *testing.T) {
	m := testModel(t)
	var base, surged, silenced int
	for day := 0; day < 5; day++ {
		tMin := day*1440 + 8*60
		base += len(sampleCity(m, rng.New(int64(day)), tMin, 10, nil))
		surged += len(sampleCity(m, rng.New(int64(day)), tMin, 10, func(int) float64 { return 3 }))
		silenced += len(sampleCity(m, rng.New(int64(day)), tMin, 10, func(int) float64 { return 0 }))
	}
	if surged <= base {
		t.Fatalf("3x surge produced %d requests vs %d baseline", surged, base)
	}
	if silenced != 0 {
		t.Fatalf("zero scale produced %d requests", silenced)
	}
}

func TestSampleScaledRegionScoped(t *testing.T) {
	m := testModel(t)
	// Silence every region but 0: all requests must originate there.
	reqs := sampleCity(m, rng.New(3), 18*60, 60, func(r int) float64 {
		if r == 0 {
			return 5
		}
		return 0
	})
	if len(reqs) == 0 {
		t.Fatal("no requests from the surged region")
	}
	for _, r := range reqs {
		if r.OriginRegion != 0 {
			t.Fatalf("request from silenced region %d", r.OriginRegion)
		}
	}
}

// Negative factors are treated as silence, not amplification.
func TestSampleScaledNegativeFactorSilences(t *testing.T) {
	m := testModel(t)
	if got := sampleCity(m, rng.New(4), 12*60, 60, func(int) float64 { return -2 }); len(got) != 0 {
		t.Fatalf("negative scale produced %d requests", len(got))
	}
}

// sampleCity draws one slot of citywide demand from one stream with the
// simulator's sampler, region by region, applying scale (nil = all ones).
func sampleCity(m *Model, src *rng.Source, tMin, slotMin int, scale func(region int) float64) []Request {
	var out []Request
	for region := 0; region < m.part.Len(); region++ {
		factor := 1.0
		if scale != nil {
			factor = scale(region)
		}
		out = m.SampleRegionScaledFast(out, src, region, tMin, slotMin, factor)
	}
	return out
}

// stripIDs zeroes the diagnostic request IDs, which come from a shared
// atomic counter and are not part of the realization.
func stripIDs(reqs []Request) []Request {
	out := append([]Request(nil), reqs...)
	for i := range out {
		out[i].ID = 0
	}
	return out
}
