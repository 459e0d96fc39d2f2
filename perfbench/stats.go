package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile returns the quantile to report as the tail of n samples:
// 0.95 when at least minBeyond samples lie beyond it, otherwise the highest
// quantile that still leaves minBeyond beyond it. ok is false when n is too
// small for any quantile to qualify; the caller then reports the median.
func tailQuantile(n int) (q float64, ok bool) {
	if n <= 0 {
		return 0.5, false
	}
	beyond := func(q float64) float64 { return float64(n) * (1 - q) }
	if beyond(0.95) >= minBeyond {
		return 0.95, true
	}
	q = 1 - float64(minBeyond)/float64(n)
	if q < 0.5 {
		return 0.5, false
	}
	return q, true
}

// latencySummary returns the median and the tail (per tailQuantile) of
// durations, in milliseconds, and the quantile the tail reports.
func latencySummary(ds []time.Duration) (p50, tail, q float64) {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	q, _ = tailQuantile(len(ms))
	return percentile(ms, 0.5), percentile(ms, q), q
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the CPU time the hypervisor has stolen from this
// machine's vCPUs so far, summed over them: the steal column of the cpu line
// of /proc/stat, which counts in USER_HZ ticks of 10 ms. It is 0 where the
// kernel does not report it.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// liveHeapMiB collects garbage and returns the bytes still in use, in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memSnap reads the allocator and GC counters.
func memSnap() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// chunks is how many consecutive parts a window is cut into for the
// printed parts line and the median slot latency.
const chunks = 16

// window accumulates the end-to-end measurements of one timed window.
type window struct {
	lat   []time.Duration // per-slot latency
	wall  time.Duration
	cpu   time.Duration
	slots int
	// heap is the MiB live once set up, before the window. The heap at the
	// window's end is not used: the engine keeps trip records in arena
	// blocks that grow geometrically, so it jumps by a whole block
	// depending on whether a seed's trip count has just crossed a block
	// boundary.
	heap    float64
	heapEnd float64 // MiB live after the window, for the per-layer growth
	// paced is set when a schedule outside the program, not the program's
	// speed, sets how many slots a second pass (the open-loop feed).
	paced bool
	// lowQuartile is set when the parts are separate runs of like work
	// (the training window's runs, one city each): the window then reports
	// the part at the lower quartile of CPU per slot and the upper quartile
	// of slots per second, not its totals. On the reference host,
	// contention from other guests comes in episodes of 5 to 12 s that slow
	// training by 40 to 65% without showing as stolen time; it only ever
	// adds time, so the lower quartile of six runs holds while four of them
	// are slowed, the median while three are.
	lowQuartile bool
	parts       []part
	last        mark
}

// part is one consecutive stretch of a window.
type part struct {
	wall, cpu time.Duration
	steal     time.Duration // stolen from the machine's vCPUs meanwhile
	slots     int
}

// unstolenWall is the wall time the part would have taken had the
// hypervisor stolen no CPU time. The process's CPU time excludes stolen
// time, so its vCPUs were runnable for cpu+steal and ran for cpu of it;
// with the machine otherwise idle and every runnable vCPU slowed alike,
// the part ran cpu/(cpu+steal) as fast as it would have unhindered. Serial
// or parallel, that is the same correction: one thread delayed by steal s
// takes wall w = w0+s with cpu = w0; two delayed alike take w = w0+s/2 with
// cpu = 2·w0.
func (p part) unstolenWall() time.Duration {
	if p.steal <= 0 || p.cpu <= 0 {
		return p.wall
	}
	return time.Duration(float64(p.wall) * float64(p.cpu) / float64(p.cpu+p.steal))
}

type mark struct {
	at    time.Time
	cpu   time.Duration
	steal time.Duration
	slots int
}

// markAt closes the part that ends after slots slots (the first call only
// opens the first part).
func (w *window) markAt(slots int) {
	m := mark{at: time.Now(), cpu: cpuTime(), steal: stealTime(), slots: slots}
	if !w.last.at.IsZero() && slots > w.last.slots {
		w.parts = append(w.parts, part{wall: m.at.Sub(w.last.at), cpu: m.cpu - w.last.cpu,
			steal: m.steal - w.last.steal, slots: slots - w.last.slots})
	}
	w.last = m
}

// partEvery returns the part length, in slots, for an n-slot window.
func partEvery(n int) int {
	if n < chunks {
		return 1
	}
	return n / chunks
}

// endToEndValues fills the end-to-end metrics, the wall-clock
// serve.slot_p50_ms and the share of CPU time stolen, host.steal_frac, from
// a window and the median set-up CPU time. slots_per_s is the window's
// slots over its unstolen wall time (its wall time if paced), and
// cpu_ms_per_slot its CPU time over its slots; a lowQuartile window reports
// a quartile of its parts instead. The parts of a serving window are hours
// of the simulated day whose CPU per slot differs up to threefold, so the
// median part sits where the daily profile is steepest and a seed that
// shifts the profile moves it by a fifth; the totals move by a tenth.
func endToEndValues(o *outcome, w window, setupCPUS float64) {
	o.values["setup_s"] = setupCPUS
	var p50s []float64
	for _, part := range split(w.lat, chunks) {
		p50, _, _ := latencySummary(part)
		p50s = append(p50s, p50)
	}
	o.values["serve.slot_p50_ms"] = median(p50s)
	parts := w.parts
	if len(parts) == 0 {
		parts = []part{{wall: w.wall, cpu: w.cpu, slots: w.slots}}
	}
	rate := make([]float64, len(parts))
	cpu := make([]float64, len(parts))
	var busy, stolen, wallSum time.Duration
	slots := 0
	fmt.Printf("parts (slots, ms wall, ms unstolen wall, ms cpu):")
	for _, p := range parts {
		fmt.Printf(" %d,%.1f,%.1f,%.1f", p.slots, float64(p.wall)/1e6, float64(p.unstolenWall())/1e6, float64(p.cpu)/1e6)
	}
	fmt.Println()
	for i, p := range parts {
		wall := p.unstolenWall()
		if w.paced {
			wall = p.wall
		}
		rate[i] = float64(p.slots) / wall.Seconds()
		cpu[i] = float64(p.cpu) / 1e6 / float64(p.slots)
		busy += p.cpu
		stolen += p.steal
		wallSum += wall
		slots += p.slots
	}
	o.values["slots_per_s"] = float64(slots) / wallSum.Seconds()
	o.values["cpu_ms_per_slot"] = float64(busy) / 1e6 / float64(slots)
	if w.lowQuartile {
		sort.Float64s(rate)
		sort.Float64s(cpu)
		o.values["slots_per_s"] = percentile(rate, 0.75)
		o.values["cpu_ms_per_slot"] = percentile(cpu, 0.25)
	}
	o.values["host.steal_frac"] = 0
	if busy+stolen > 0 {
		o.values["host.steal_frac"] = float64(stolen) / float64(busy+stolen)
	}
	o.values["live_heap_mb"] = w.heap
}

// slotTail fills serve.slot_p95_ms, the slot latency tail of the whole
// window by the percentile rule, and prints which percentile it is.
func slotTail(o *outcome, w window) {
	_, tail, q := latencySummary(w.lat)
	o.values["serve.slot_p95_ms"] = tail
	fmt.Printf("serve.slot_p95_ms is p%g of %d slots\n", 100*q, len(w.lat))
}

// split cuts xs into k consecutive parts of near-equal length; it returns
// xs whole when k < 2 or xs has fewer than k samples.
func split(xs []time.Duration, k int) [][]time.Duration {
	if k < 2 || len(xs) < k {
		return [][]time.Duration{xs}
	}
	out := make([][]time.Duration, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, xs[i*len(xs)/k:(i+1)*len(xs)/k])
	}
	return out
}

// windowSlots sizes a window: seconds of work at the workload's nominal
// rate on the reference host (2 vCPU, GOMAXPROCS=2), rounded up to whole
// simulated hours so every window covers the same hours of the day.
func windowSlots(seconds, nominalPerS float64, slotsPerHour int) int {
	n := int(seconds*nominalPerS + 0.999)
	if n < slotsPerHour {
		n = slotsPerHour
	}
	return (n + slotsPerHour - 1) / slotsPerHour * slotsPerHour
}
