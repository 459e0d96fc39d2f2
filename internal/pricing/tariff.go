// Package pricing implements the two money models of the paper: the
// time-of-use (TOU) electricity tariff that e-taxis pay when charging
// (Section II, Fig. 2) and the passenger fare schedule that generates
// operating revenue.
//
// The Shenzhen tariff has three bands — off-peak, flat ("semi-peak"), and
// peak — priced at 0.9, 1.2, and 1.6 CNY/kWh. Charging costs are the inner
// product λ·T_charge of the price vector with the time spent in each band
// (Eq. 2), which this package computes exactly for charging intervals that
// span band boundaries or midnight.
package pricing

import (
	"fmt"
	"time"
)

// Band identifies one TOU price band.
type Band int

// The three TOU bands of the Shenzhen tariff.
const (
	OffPeak Band = iota
	Flat
	Peak
	numBands
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case OffPeak:
		return "off-peak"
	case Flat:
		return "flat"
	case Peak:
		return "peak"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// BandSpan is a half-open daily interval [StartMin, EndMin) in minutes since
// midnight assigned to one band.
type BandSpan struct {
	StartMin int
	EndMin   int
	Band     Band
}

// Tariff is a 24-hour TOU tariff. Rates are CNY per kWh indexed by Band.
type Tariff struct {
	spans []BandSpan
	rates [numBands]float64
	// minute-resolution lookup table for O(1) band queries.
	byMinute [24 * 60]Band
}

// NewTariff builds a tariff from spans covering [0, 1440) minutes without
// gaps or overlaps, and per-band rates.
func NewTariff(spans []BandSpan, offPeak, flat, peak float64) (*Tariff, error) {
	t := &Tariff{spans: append([]BandSpan(nil), spans...)}
	t.rates[OffPeak] = offPeak
	t.rates[Flat] = flat
	t.rates[Peak] = peak

	covered := make([]bool, 24*60)
	for _, s := range spans {
		if s.StartMin < 0 || s.EndMin > 24*60 || s.StartMin >= s.EndMin {
			return nil, fmt.Errorf("pricing: invalid span [%d,%d)", s.StartMin, s.EndMin)
		}
		if s.Band < 0 || s.Band >= numBands {
			return nil, fmt.Errorf("pricing: invalid band %d", s.Band)
		}
		for m := s.StartMin; m < s.EndMin; m++ {
			if covered[m] {
				return nil, fmt.Errorf("pricing: overlapping spans at minute %d", m)
			}
			covered[m] = true
			t.byMinute[m] = s.Band
		}
	}
	for m, c := range covered {
		if !c {
			return nil, fmt.Errorf("pricing: uncovered minute %d", m)
		}
	}
	return t, nil
}

// Shenzhen returns the TOU tariff used in the paper's evaluation (Fig. 2):
// peak bands around the morning and evening rush, off-peak bands overnight
// and in the early afternoon trough, flat elsewhere, at 0.9/1.2/1.6 CNY/kWh.
// The band layout matches the charging-peak hours the paper reports
// (off-peak 2:00-6:00, 12:00-14:00, 17:00-18:00).
func Shenzhen() *Tariff {
	h := func(hr int) int { return hr * 60 }
	spans := []BandSpan{
		{h(0), h(2), Flat},
		{h(2), h(6), OffPeak},
		{h(6), h(9), Flat},
		{h(9), h(12), Peak},
		{h(12), h(14), OffPeak},
		{h(14), h(17), Peak},
		{h(17), h(18), OffPeak},
		{h(18), h(22), Peak},
		{h(22), h(24), Flat},
	}
	t, err := NewTariff(spans, 0.9, 1.2, 1.6)
	if err != nil {
		panic("pricing: Shenzhen tariff construction failed: " + err.Error())
	}
	return t
}

// Rate returns the CNY/kWh price of a band.
func (t *Tariff) Rate(b Band) float64 { return t.rates[b] }

// BandAt returns the band in effect at minute-of-day m (wrapped mod 1440).
func (t *Tariff) BandAt(m int) Band {
	m %= 24 * 60
	if m < 0 {
		m += 24 * 60
	}
	return t.byMinute[m]
}

// BandAtTime returns the band in effect at the wall-clock time of ts.
func (t *Tariff) BandAtTime(ts time.Time) Band {
	return t.BandAt(ts.Hour()*60 + ts.Minute())
}

// Decompose splits a charging interval that starts at minute-of-day startMin
// and lasts durationMin minutes into the per-band durations
// T = [T_o, T_f, T_p] (minutes), wrapping across midnight as needed.
func (t *Tariff) Decompose(startMin, durationMin int) [3]float64 {
	var out [3]float64
	if durationMin <= 0 {
		return out
	}
	for i := 0; i < durationMin; i++ {
		out[t.BandAt(startMin+i)]++
	}
	return out
}

// EnergyCost returns the CNY cost of drawing powerKW continuously from
// startMin for durationMin minutes: the inner product λ·T_charge of Eq. 2
// with energy expressed through constant power.
func (t *Tariff) EnergyCost(startMin, durationMin int, powerKW float64) float64 {
	dur := t.Decompose(startMin, durationMin)
	var cost float64
	for b := OffPeak; b < numBands; b++ {
		hours := dur[b] / 60
		cost += t.rates[b] * powerKW * hours
	}
	return cost
}
