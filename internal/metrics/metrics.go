// Package metrics computes the paper's evaluation metrics (Section IV-A):
// profit efficiency PE (Eq. 2), profit fairness PF (Eq. 3), and the four
// comparison percentages PRCT, PRIT, PIPE, and PIPF (Eq. 12-15) that every
// table and figure reports. The per-strategy row combining them is
// fairmove.Comparison.
package metrics

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// FleetPE returns the mean profit efficiency across on-duty taxis.
func FleetPE(r *sim.Results) float64 { return stats.Mean(r.PEs()) }

// ProfitFairness returns PF (Eq. 3): the population variance of per-taxi
// profit efficiency. Smaller is fairer.
func ProfitFairness(r *sim.Results) float64 { return stats.Variance(r.PEs()) }

// PRCT returns the Percentage Reduction of Cruise Time of strategy D versus
// ground truth G (Eq. 12), in percent. Positive means D cruises less.
func PRCT(g, d *sim.Results) float64 {
	gSum := sum(g.CruiseTimes())
	dSum := sum(d.CruiseTimes())
	if gSum == 0 {
		return 0
	}
	return (gSum - dSum) / gSum * 100
}

// PRIT returns the Percentage Reduction of Idle Time (Eq. 13), in percent.
func PRIT(g, d *sim.Results) float64 {
	gSum := sum(g.IdleTimes())
	dSum := sum(d.IdleTimes())
	if gSum == 0 {
		return 0
	}
	return (gSum - dSum) / gSum * 100
}

// PIPE returns the Percentage Increase of Profit Efficiency (Eq. 14), in
// percent: the relative change of the summed per-taxi PE.
func PIPE(g, d *sim.Results) float64 {
	gSum := sum(g.PEs())
	dSum := sum(d.PEs())
	if gSum == 0 {
		return 0
	}
	return (dSum - gSum) / gSum * 100
}

// PIPF returns the Percentage Increase of Profit Fairness (Eq. 15), in
// percent: the relative reduction of PF (variance), so positive is fairer.
func PIPF(g, d *sim.Results) float64 {
	gPF := ProfitFairness(g)
	dPF := ProfitFairness(d)
	if gPF == 0 {
		return 0
	}
	return (gPF - dPF) / gPF * 100
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// HourlyMeanCruise buckets per-trip cruise times by pickup hour — the series
// behind Fig. 11 (combined with a GT run via PRCTByHour).
func HourlyMeanCruise(r *sim.Results) [24]float64 {
	var hb stats.HourBuckets
	for _, ts := range r.TripStats {
		hb.Add((ts.PickupMin/60)%24, ts.CruiseMin)
	}
	return hb.Means()
}

// HourlyMeanIdle buckets per-charge idle times by plug hour (Fig. 13).
func HourlyMeanIdle(r *sim.Results) [24]float64 {
	var hb stats.HourBuckets
	for _, cs := range r.ChargeStats {
		hb.Add((cs.PlugMin/60)%24, float64(cs.IdleMin()))
	}
	return hb.Means()
}

// PRCTByHour returns the hour-of-day PRCT series of Fig. 11: the relative
// cruise-time reduction of d versus g within each pickup hour.
func PRCTByHour(g, d *sim.Results) [24]float64 {
	return reductionByHour(HourlyMeanCruise(g), HourlyMeanCruise(d))
}

// PRITByHour returns the hour-of-day PRIT series of Fig. 13.
func PRITByHour(g, d *sim.Results) [24]float64 {
	return reductionByHour(HourlyMeanIdle(g), HourlyMeanIdle(d))
}

func reductionByHour(g, d [24]float64) [24]float64 {
	var out [24]float64
	for h := 0; h < 24; h++ {
		if g[h] > 0 {
			out[h] = (g[h] - d[h]) / g[h] * 100
		}
	}
	return out
}
