package report

import (
	"fmt"
	"sort"
	"strings"

	fairmove "repro"
	"repro/internal/demand"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig3 reproduces the charging-time distribution finding: the paper reports
// 73.5% of charging events lasting 45-120 minutes.
func (b *Bundle) Fig3() string {
	times := b.gt().ChargeTimes()
	var sb strings.Builder
	sb.WriteString("Fig. 3 — Charging time distribution (GT)\n")
	if len(times) == 0 {
		sb.WriteString("  no charging events\n")
		return sb.String()
	}
	h := stats.NewHistogram(0, 240, 16) // 15-min bins
	for _, t := range times {
		h.Add(t)
	}
	inBand := h.FractionInRange(45, 120)
	med, _ := stats.Median(times)
	sb.WriteString(fmt.Sprintf("  events=%d median=%.0fmin in[45,120)min=%.1f%% (paper: 73.5%%)\n",
		len(times), med, inBand*100))
	for i := 0; i < len(h.Counts); i += 2 {
		lo := h.Min + float64(i)*15
		sb.WriteString(fmt.Sprintf("  %3.0f-%3.0f min: %5.1f%%\n", lo, lo+30, h.Fraction(i, i+2)*100))
	}
	return sb.String()
}

// Fig4 reproduces the charging peaks: the paper observes plug-in surges in
// the cheap bands 2:00-6:00, 12:00-14:00, and 17:00-18:00.
func (b *Bundle) Fig4() string {
	counts := b.gt().ChargeStartsByHour
	var sb strings.Builder
	sb.WriteString("Fig. 4 — Charging events per hour of day (GT)\n")
	var total, offPeak int
	for h, c := range counts {
		total += c
		if (h >= 2 && h < 6) || h == 12 || h == 13 || h == 17 {
			offPeak += c
		}
	}
	if total == 0 {
		sb.WriteString("  no charging events\n")
		return sb.String()
	}
	sb.WriteString(fmt.Sprintf("  off-peak-band share=%.1f%% (uniform would be %.1f%%)\n",
		float64(offPeak)/float64(total)*100, 7.0/24*100))
	for h := 0; h < 24; h += 2 {
		c := counts[h] + counts[h+1]
		bar := strings.Repeat("#", c*40/max(total, 1))
		sb.WriteString(fmt.Sprintf("  %02d-%02dh %4d %s\n", h, h+2, c, bar))
	}
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig5 reproduces the first-cruise-time CDF after charging: the paper finds
// 40% of e-taxis find their first passenger within 10 minutes while 10%
// cruise over an hour.
func (b *Bundle) Fig5() string {
	mins, _ := b.gt().FirstCruiseTimes()
	var sb strings.Builder
	sb.WriteString("Fig. 5 — First cruise time after charging, CDF (GT)\n")
	if len(mins) == 0 {
		sb.WriteString("  no post-charge trips\n")
		return sb.String()
	}
	sb.WriteString(fmt.Sprintf("  n=%d %s (paper: ≤10min≈40%%, >60min≈10%%)\n",
		len(mins), cdfPoints(mins, []float64{10, 20, 30, 60, 90})))
	return sb.String()
}

// Fig6 reproduces the per-station first-cruise differences: three stations
// with clearly different post-charge seek times.
func (b *Bundle) Fig6() string {
	mins, sts := b.gt().FirstCruiseTimes()
	var sb strings.Builder
	sb.WriteString("Fig. 6 — First cruise time by charging station (GT)\n")
	byStation := make(map[int][]float64)
	for i, m := range mins {
		byStation[sts[i]] = append(byStation[sts[i]], m)
	}
	type entry struct {
		id   int
		n    int
		mean float64
	}
	var entries []entry
	for id, xs := range byStation {
		if len(xs) >= 5 {
			entries = append(entries, entry{id, len(xs), stats.Mean(xs)})
		}
	}
	if len(entries) < 3 {
		sb.WriteString("  insufficient per-station samples\n")
		return sb.String()
	}
	sort.Slice(entries, func(a, c int) bool { return entries[a].mean < entries[c].mean })
	pick := []entry{entries[0], entries[len(entries)/2], entries[len(entries)-1]}
	for _, e := range pick {
		sb.WriteString(fmt.Sprintf("  station CS-%03d: n=%d mean first cruise=%.1f min\n", e.id, e.n, e.mean))
	}
	spread := pick[2].mean - pick[0].mean
	sb.WriteString(fmt.Sprintf("  spread across stations=%.1f min (paper: large differences)\n", spread))
	return sb.String()
}

// Fig7 reproduces the per-trip revenue heatmap finding: mean fares range
// from several CNY to over 100 CNY across regions, the airport is always
// expensive, and rush hours have more high-fare regions than late night.
func (b *Bundle) Fig7() string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 — Mean per-trip revenue by region and time of day\n")
	city := b.sys.City()
	m := city.Demand
	src := rng.SplitStable(b.Config.Seed, "fig7")
	windows := []struct {
		name string
		hour int
	}{
		{"late night (00-01h)", 0},
		{"morning rush (08-09h)", 8},
		{"evening rush (18-19h)", 18},
	}
	archeOf := m.Archetypes()
	for _, w := range windows {
		var fares []float64
		var airport float64
		for r := 0; r < city.Partition.Len(); r++ {
			f := m.ExpectedFare(r, w.hour)
			fares = append(fares, f)
			if archeOf[r] == demand.Airport {
				airport = f
			}
		}
		s := stats.Summarize(fares)
		sb.WriteString(fmt.Sprintf("  %-22s min=%.0f median=%.0f max=%.0f airport=%.0f CNY\n",
			w.name, s.Min, s.Median, s.Max, airport))
	}
	// Monte-Carlo check of the analytic table on a sample region.
	mc := m.MeanFare(src, 0, 18, 100)
	sb.WriteString(fmt.Sprintf("  (analytic vs sampled fare, region 0 @18h: %.0f vs %.0f CNY)\n",
		m.ExpectedFare(0, 18), mc))
	return sb.String()
}

// Fig8 reproduces the profit-inequality finding: the paper reports the 20th
// percentile of hourly PE below 36 and the 80th above 51 — a 42% gap.
func (b *Bundle) Fig8() string {
	pes := b.gt().PEs()
	var sb strings.Builder
	sb.WriteString("Fig. 8 — Hourly profit efficiency across e-taxis, CDF (GT)\n")
	if len(pes) == 0 {
		sb.WriteString("  no on-duty taxis\n")
		return sb.String()
	}
	p20, _ := stats.Percentile(pes, 20)
	p50, _ := stats.Percentile(pes, 50)
	p80, _ := stats.Percentile(pes, 80)
	gap := 0.0
	if p20 > 0 {
		gap = (p80 - p20) / p20 * 100
	}
	sb.WriteString(fmt.Sprintf("  n=%d P20=%.1f P50=%.1f P80=%.1f CNY/h top-vs-bottom gap=%.0f%% (paper: P20≈36 P50≈45 P80≈51, gap 42%%)\n",
		len(pes), p20, p50, p80, gap))
	sb.WriteString(fmt.Sprintf("  PF (variance)=%.1f Gini=%.3f\n", stats.Variance(pes), stats.Gini(pes)))
	return sb.String()
}

// Fig10 reproduces the per-trip cruise time distributions by method. The
// paper's GT median is 6.5 min, dropping to 5.4 under FairMove with smaller
// variance.
func (b *Bundle) Fig10() string {
	var sb strings.Builder
	sb.WriteString("Fig. 10 — Per-trip cruise time by method\n")
	for _, m := range b.methodsPresent() {
		ct := b.Results[m].CruiseTimes()
		if len(ct) == 0 {
			sb.WriteString(row(m, "no trips"))
			continue
		}
		sb.WriteString(row(m, stats.Summarize(ct).String()))
	}
	return sb.String()
}

// Fig11 reproduces the hour-of-day PRCT series; the paper highlights >40%
// reductions at 5:00-7:00 when uncoordinated drivers cruise longest.
func (b *Bundle) Fig11() string {
	var sb strings.Builder
	sb.WriteString("Fig. 11 — PRCT by hour of day (percent reduction vs GT)\n")
	g := b.gt()
	for _, m := range b.methodsPresent() {
		if m == fairmove.GT {
			continue
		}
		series := metrics.PRCTByHour(g, b.Results[m])
		sb.WriteString(row(m, fmtHourSeries(series)))
	}
	return sb.String()
}

// Fig12 reproduces the per-charge idle-time distributions. The paper's
// FairMove keeps 75% of idle times below 22 minutes while SD2 worsens them.
func (b *Bundle) Fig12() string {
	var sb strings.Builder
	sb.WriteString("Fig. 12 — Per-charge idle time by method\n")
	for _, m := range b.methodsPresent() {
		it := b.Results[m].IdleTimes()
		if len(it) == 0 {
			sb.WriteString(row(m, "no charging events"))
			continue
		}
		sb.WriteString(row(m, stats.Summarize(it).String()))
	}
	return sb.String()
}

// Fig13 reproduces the hour-of-day PRIT series; the paper highlights gains
// in the charging-peak hours (4:00-5:00, 17:00-18:00).
func (b *Bundle) Fig13() string {
	var sb strings.Builder
	sb.WriteString("Fig. 13 — PRIT by hour of day (percent reduction vs GT)\n")
	g := b.gt()
	for _, m := range b.methodsPresent() {
		if m == fairmove.GT {
			continue
		}
		series := metrics.PRITByHour(g, b.Results[m])
		sb.WriteString(row(m, fmtHourSeries(series)))
	}
	return sb.String()
}

// Fig14 reproduces the hourly-PE distributions; the paper's GT median is
// 45.2 CNY/h rising to 53.1 under FairMove with shrinking variance.
func (b *Bundle) Fig14() string {
	var sb strings.Builder
	sb.WriteString("Fig. 14 — Hourly profit efficiency by method\n")
	for _, m := range b.methodsPresent() {
		pes := b.Results[m].PEs()
		if len(pes) == 0 {
			sb.WriteString(row(m, "no on-duty taxis"))
			continue
		}
		sb.WriteString(row(m, stats.Summarize(pes).String()))
	}
	return sb.String()
}

// Fig15 reproduces the overall PIPE bars: the paper reports +25.2% for
// FairMove, +7.5% for DQN, and −5% for SD2.
func (b *Bundle) Fig15() string {
	var sb strings.Builder
	sb.WriteString("Fig. 15 — Percentage increase of profit efficiency (PIPE vs GT)\n")
	g := b.gt()
	for _, m := range b.methodsPresent() {
		if m == fairmove.GT {
			continue
		}
		sb.WriteString(row(m, fmt.Sprintf("PIPE=%+6.1f%%", metrics.PIPE(g, b.Results[m]))))
	}
	return sb.String()
}

// Fig16 reproduces the PIPF bars: the paper reports +54.7% for FairMove,
// +28.7% TQL, +17.9% DQN, ≈13% for SD2 and TBA.
func (b *Bundle) Fig16() string {
	var sb strings.Builder
	sb.WriteString("Fig. 16 — Percentage increase of profit fairness (PIPF vs GT)\n")
	g := b.gt()
	for _, m := range b.methodsPresent() {
		if m == fairmove.GT {
			continue
		}
		sb.WriteString(row(m, fmt.Sprintf("PIPF=%+6.1f%%", metrics.PIPF(g, b.Results[m]))))
	}
	return sb.String()
}

// Table2 reproduces the average PRCT row (paper: SD2 19.4, TQL 13.7,
// DQN 23.6, TBA 21.3, FairMove 32.1).
func (b *Bundle) Table2() string {
	return b.percentTable("Table II — Average PRCT", metrics.PRCT)
}

// Table3 reproduces the average PRIT row (paper: SD2 −23.1, TQL 8.4,
// DQN 21, TBA 3.1, FairMove 43.3).
func (b *Bundle) Table3() string {
	return b.percentTable("Table III — Average PRIT", metrics.PRIT)
}

func (b *Bundle) percentTable(title string, f func(g, d *sim.Results) float64) string {
	var sb strings.Builder
	sb.WriteString(title + "\n  ")
	g := b.gt()
	for _, m := range b.methodsPresent() {
		if m == fairmove.GT {
			continue
		}
		sb.WriteString(fmt.Sprintf("%s=%+.1f%%  ", m, f(g, b.Results[m])))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Table4 reproduces the α sensitivity study: average reward per swept α
// (paper: 6.95, 7.05, 7.16, 7.44, 7.39, 7.15 for α = 0..1, peaking at
// 0.6-0.8).
func (b *Bundle) Table4() string {
	var sb strings.Builder
	sb.WriteString("Table IV — Average reward r under different α\n")
	if len(b.Alpha) == 0 {
		sb.WriteString("  (run the alpha sweep to populate)\n")
		return sb.String()
	}
	best := b.Alpha[0]
	for _, pt := range b.Alpha {
		if pt.Reward > best.Reward {
			best = pt
		}
		fmt.Fprintf(&sb, "  α=%.1f  r=%.3f  evaluated meanPE=%.2f PF=%.2f\n", pt.Alpha, pt.Reward, pt.MeanPE, pt.PF)
	}
	fmt.Fprintf(&sb, "  best α by training reward=%.1f (paper: 0.6-0.8); the evaluated PE/PF\n", best.Alpha)
	sb.WriteString("  columns show the efficiency/fairness trade the weight actually buys\n")
	return sb.String()
}

// FormatAblations prints the design-choice ablation comparisons.
func (b *Bundle) FormatAblations() string {
	if len(b.Ablations) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("Ablations (vs GT)\n")
	g := b.gt()
	names := make([]string, 0, len(b.Ablations))
	for n := range b.Ablations {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sb.WriteString("  " + fairmove.Compare(fairmove.Method(n), g, b.Ablations[n]).String() + "\n")
	}
	return sb.String()
}

// FormatAll prints the full report.
func (b *Bundle) FormatAll() string {
	sections := []string{
		b.FormatComparisonSummary(),
		b.Fig3(), b.Fig4(), b.Fig5(), b.Fig6(), b.Fig7(), b.Fig8(),
		b.Fig10(), b.Fig11(), b.Table2(),
		b.Fig12(), b.Fig13(), b.Table3(),
		b.Fig14(), b.Fig15(), b.Fig16(),
		b.Table4(),
		b.FormatAblations(),
	}
	return strings.Join(sections, "\n")
}

// fmtHourSeries compresses a 24-value series into 6 four-hour buckets.
func fmtHourSeries(series [24]float64) string {
	var parts []string
	for h := 0; h < 24; h += 4 {
		avg := (series[h] + series[h+1] + series[h+2] + series[h+3]) / 4
		parts = append(parts, fmt.Sprintf("%02dh:%+.0f%%", h, avg))
	}
	return strings.Join(parts, " ")
}
