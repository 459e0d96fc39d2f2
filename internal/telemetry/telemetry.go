// Package telemetry is the fleet-wide metrics layer: a dependency-free,
// allocation-conscious registry of counters, gauges, timers, and fixed-bucket
// histograms, with snapshot/diff semantics and a canonical text/JSON dump.
//
// Design constraints, in order:
//
//   - Determinism safety. Instrumented code must behave identically with and
//     without telemetry: metric writes never branch on wall-clock, never touch
//     rng streams, and never feed back into simulation or training state.
//     Counters, gauges, and histograms record simulation events, so their
//     values are themselves deterministic (workers=1 and workers=N agree);
//     timers record wall-clock durations and are the one non-deterministic
//     metric family — comparisons across runs must exclude them.
//
//   - Nil is off. Every method on *Registry and on every handle type is
//     nil-receiver-safe: a nil registry hands out nil handles and a nil
//     handle's write methods are no-ops, so instrumented code carries no
//     "is telemetry on?" branches of its own.
//
//   - Hot paths resolve handles once. Registry lookups take a mutex; handle
//     writes are single atomic operations. Per-event instrumentation (the
//     simulator's match/balk/charge counters) stores handles at setup time
//     and only pays the atomic add per event.
//
// Handles are shared: two Counter("x") calls return the same counter, so one
// registry can aggregate across concurrent environments (CompareAll's six
// methods) without coordination beyond the atomics.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are allowed but unusual).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates wall-clock durations. Timers exist for profiling the
// runtime, not the simulation: their values are not deterministic and are
// excluded from any byte-identity comparison.
type Timer struct {
	n  atomic.Int64
	ns atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.n.Add(1)
		t.ns.Add(int64(d))
	}
}

// Start begins timing one duration; its Stop records it. The nil timer
// returns a Stopwatch whose Stop does nothing, and neither reads the clock.
func (t *Timer) Start() Stopwatch {
	if t == nil {
		return Stopwatch{}
	}
	return Stopwatch{t: t, start: time.Now()}
}

// Stopwatch is one duration being timed, a value so that timing a span
// allocates nothing.
type Stopwatch struct {
	t     *Timer
	start time.Time
}

// Stop records the time since Start on the timer.
func (s Stopwatch) Stop() {
	if s.t != nil {
		s.t.Observe(time.Since(s.start))
	}
}

// Stat returns the accumulated (count, total duration).
func (t *Timer) Stat() TimerStat {
	if t == nil {
		return TimerStat{}
	}
	return TimerStat{Count: t.n.Load(), TotalNs: t.ns.Load()}
}

// Histogram is a fixed-bucket distribution over [Min, Max); out-of-range
// observations clamp into the boundary buckets, so every observation counts.
// Bucket boundaries are fixed at creation — no rebucketing, no allocation on
// the observe path.
type Histogram struct {
	min, max float64
	buckets  []atomic.Int64
	count    atomic.Int64
	sumBits  atomic.Uint64 // float64 sum, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	b := int((v - h.min) / (h.max - h.min) * float64(len(h.buckets)))
	if b < 0 {
		b = 0
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Stat returns a copy of the histogram's current state.
func (h *Histogram) Stat() HistogramStat {
	if h == nil {
		return HistogramStat{}
	}
	s := HistogramStat{
		Min:    h.min,
		Max:    h.max,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Registry owns a namespace of metrics. The zero value is not usable; create
// with NewRegistry. A nil *Registry is the "telemetry off" state: it hands
// out nil handles whose writes are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later calls with different bounds return the existing
// histogram unchanged (bounds are fixed at creation).
func (r *Registry) Histogram(name string, min, max float64, buckets int) *Histogram {
	if r == nil {
		return nil
	}
	if buckets <= 0 || max <= min {
		panic(fmt.Sprintf("telemetry: invalid histogram %q [%v,%v) buckets=%d", name, min, max, buckets))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{min: min, max: max, buckets: make([]atomic.Int64, buckets)}
		r.hists[name] = h
	}
	return h
}

// TimerStat is the snapshot of one timer.
type TimerStat struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

// Mean returns the mean duration (0 when empty).
func (t TimerStat) Mean() time.Duration {
	if t.Count == 0 {
		return 0
	}
	return time.Duration(t.TotalNs / t.Count)
}

// HistogramStat is the snapshot of one histogram.
type HistogramStat struct {
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
}

// Mean returns the mean observed value (0 when empty).
func (h HistogramStat) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of every metric in a registry. Snapshots
// are plain data: diff them, serialize them, compare them across runs
// (excluding Timers, which are wall-clock).
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Timers     map[string]TimerStat     `json:"timers,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Timers:     map[string]TimerStat{},
		Histograms: map[string]HistogramStat{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range timers {
		s.Timers[k] = v.Stat()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Stat()
	}
	return s
}

// Diff returns the change from prev to s: counters, timers, and histogram
// counts subtract (metrics absent from prev diff against zero); gauges keep
// their current value — a gauge is a level, not a flow.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Timers:     make(map[string]TimerStat, len(s.Timers)),
		Histograms: make(map[string]HistogramStat, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Timers {
		p := prev.Timers[k]
		out.Timers[k] = TimerStat{Count: v.Count - p.Count, TotalNs: v.TotalNs - p.TotalNs}
	}
	for k, v := range s.Histograms {
		p := prev.Histograms[k]
		d := HistogramStat{
			Min:    v.Min,
			Max:    v.Max,
			Counts: append([]int64(nil), v.Counts...),
			Count:  v.Count - p.Count,
			Sum:    v.Sum - p.Sum,
		}
		for i := range d.Counts {
			if i < len(p.Counts) {
				d.Counts[i] -= p.Counts[i]
			}
		}
		out.Histograms[k] = d
	}
	return out
}

// Merge folds a snapshot into the registry: counters and timers accumulate,
// gauges take the snapshot's value (last write wins), and histogram buckets
// add, with the histogram created from the snapshot's bounds on first use.
// It lets short-lived per-evaluation registries (one per report cell, so
// methods don't mix) roll up into a process-wide registry for the CLI dump.
func (r *Registry) Merge(s Snapshot) {
	if r == nil {
		return
	}
	for k, v := range s.Counters {
		r.Counter(k).Add(v)
	}
	for k, v := range s.Gauges {
		r.Gauge(k).Set(v)
	}
	for k, v := range s.Timers {
		t := r.Timer(k)
		t.n.Add(v.Count)
		t.ns.Add(v.TotalNs)
	}
	for k, v := range s.Histograms {
		if len(v.Counts) == 0 || v.Max <= v.Min {
			continue
		}
		h := r.Histogram(k, v.Min, v.Max, len(v.Counts))
		for i, c := range v.Counts {
			if i < len(h.buckets) {
				h.buckets[i].Add(c)
			}
		}
		h.count.Add(v.Count)
		for {
			old := h.sumBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + v.Sum)
			if h.sumBits.CompareAndSwap(old, next) {
				break
			}
		}
	}
}

// Text renders the snapshot as a canonical human-readable dump: one metric
// per line, keys sorted, families in fixed order. Identical snapshots render
// to identical bytes.
func (s Snapshot) Text() string {
	var sb strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&sb, "counter   %-42s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&sb, "gauge     %-42s %.4f\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(&sb, "histogram %-42s n=%d mean=%.2f range=[%g,%g) buckets=%s\n",
			k, h.Count, h.Mean(), h.Min, h.Max, fmtBuckets(h.Counts))
	}
	for _, k := range sortedKeys(s.Timers) {
		t := s.Timers[k]
		fmt.Fprintf(&sb, "timer     %-42s n=%d total=%v mean=%v\n",
			k, t.Count, time.Duration(t.TotalNs).Round(time.Microsecond), t.Mean().Round(time.Microsecond))
	}
	return sb.String()
}

// JSON renders the snapshot as canonical JSON (encoding/json sorts map keys).
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

func fmtBuckets(counts []int64) string {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DumpEvery writes a full snapshot to w every interval until stop is called.
// It is the CLI's periodic-dump loop; the ticker lives entirely outside the
// simulation, so determinism is unaffected. The returned stop function
// flushes nothing (callers print the final snapshot themselves) and is safe
// to call once.
func (r *Registry) DumpEvery(interval time.Duration, w io.Writer) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case t := <-tick.C:
				fmt.Fprintf(w, "-- telemetry @ %s --\n%s", t.Format(time.TimeOnly), r.Snapshot().Text())
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
