package sim

import (
	"testing"

	"repro/internal/synth"
)

// forecastFeatureIndex is the offset of the own-region forecast feature.
const forecastFeatureIndex = featTime + featSelf + 1

func TestNoForecastFeatureZeroes(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	opts.NoForecastFeature = true
	e := New(city, opts, 50)
	for _, id := range e.VacantTaxis()[:5] {
		obs := e.Observe(id)
		if obs.Features[forecastFeatureIndex] != 0 {
			t.Fatalf("forecast feature = %v with ablation on", obs.Features[forecastFeatureIndex])
		}
	}
}

func TestOracleForecastPositiveInBusyRegions(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 53)
	var any bool
	for _, id := range e.VacantTaxis() {
		if e.Observe(id).Features[forecastFeatureIndex] > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("oracle forecast zero everywhere")
	}
}
