package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	tm := r.Timer("x")
	h := r.Histogram("x", 0, 10, 4)
	if c != nil || g != nil || tm != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	// None of these may panic.
	c.Inc()
	c.Add(5)
	g.Set(3)
	tm.Observe(time.Second)
	tm.Start().Stop()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || tm.Stat().Count != 0 || h.Stat().Count != 0 {
		t.Fatalf("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.Text() != "" {
		t.Fatalf("nil registry snapshot must be empty, got %q", snap.Text())
	}
	r.DumpEvery(time.Second, nil)() // no-op stop
}

// TestTimerStartStopAllocatesNothing: timing a span on a live timer is
// a value round trip, so hot loops can time every iteration.
func TestTimerStartStopAllocatesNothing(t *testing.T) {
	tm := NewRegistry().Timer("span")
	allocs := testing.AllocsPerRun(100, func() {
		sw := tm.Start()
		sw.Stop()
	})
	if allocs != 0 {
		t.Fatalf("Timer.Start/Stop allocates %v/op, want 0", allocs)
	}
	if st := tm.Stat(); st.Count != 101 {
		t.Fatalf("timer counted %d spans, want 101", st.Count)
	}
}

func TestHandlesAreShared(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sim.matches")
	b := r.Counter("sim.matches")
	if a != b {
		t.Fatalf("same name must return the same counter")
	}
	a.Inc()
	b.Add(2)
	if got := r.Counter("sim.matches").Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
}

func TestHistogramClampsAndAccumulates(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("idle", 0, 100, 4)
	for _, v := range []float64{-5, 10, 30, 60, 95, 250} {
		h.Observe(v)
	}
	s := h.Stat()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	want := []int64{2, 1, 1, 2} // -5 and 10 clamp low bucket; 95 and 250 top bucket
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if got := s.Sum; got != -5+10+30+60+95+250 {
		t.Fatalf("sum = %v", got)
	}
	if m := s.Mean(); m != s.Sum/6 {
		t.Fatalf("mean = %v", m)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	g := r.Gauge("loss")
	h := r.Histogram("d", 0, 10, 2)
	c.Add(10)
	g.Set(0.5)
	h.Observe(1)
	before := r.Snapshot()
	c.Add(7)
	g.Set(0.25)
	h.Observe(9)
	diff := r.Snapshot().Diff(before)
	if diff.Counters["events"] != 7 {
		t.Fatalf("counter diff = %d, want 7", diff.Counters["events"])
	}
	if diff.Gauges["loss"] != 0.25 {
		t.Fatalf("gauge diff keeps current value, got %v", diff.Gauges["loss"])
	}
	hd := diff.Histograms["d"]
	if hd.Count != 1 || hd.Counts[0] != 0 || hd.Counts[1] != 1 || hd.Sum != 9 {
		t.Fatalf("histogram diff = %+v", hd)
	}
}

func TestTextCanonicalAndJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", 0, 4, 2).Observe(1)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if s1.Text() != s2.Text() {
		t.Fatalf("identical snapshots must render identically")
	}
	// Keys are sorted: "a" before "b".
	txt := s1.Text()
	if strings.Index(txt, "a ") > strings.Index(txt, "b ") {
		t.Fatalf("keys not sorted:\n%s", txt)
	}
	data, err := s1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 2 || back.Gauges["g"] != 1.5 || back.Histograms["h"].Count != 1 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("h", 0, 1, 4)
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h", 0, 1, 4).Stat().Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestDumpEvery(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	stop := r.DumpEvery(5*time.Millisecond, w)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := sb.String()
		mu.Unlock()
		if strings.Contains(got, "counter") && strings.Contains(got, "x") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("periodic dump never fired; buffer: %q", got)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// BenchmarkCounterInc pins the per-event cost of the hot path: one atomic
// add. The <5% overhead budget on the Compare bench follows from this being
// a few nanoseconds against simulation slots that cost milliseconds.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterIncDisabled measures the telemetry-off path (nil handle).
func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
