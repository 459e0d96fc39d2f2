package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		wantQ  float64
		wantOK bool
	}{
		{200, 0.95, true},  // exactly 10 beyond p95
		{1000, 0.95, true}, // 50 beyond
		{199, 1 - 10.0/199, true},
		{100, 0.9, true},
		{20, 0.5, true}, // 10 beyond the median
		{19, 0.5, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if ok != c.wantOK || q != c.wantQ {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.wantQ, c.wantOK)
		}
		if ok && float64(c.n)*(1-q) < minBeyond-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves %.1f samples beyond it", c.n, q, float64(c.n)*(1-q))
		}
	}
	// 100 samples of 1..100 ms: the tail reported is p90, not p95.
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	p50, tail, q := latencySummary(ds)
	if p50 != 50 || q != 0.9 || tail != 90 {
		t.Errorf("latencySummary = p50 %v, tail %v at q %v; want 50, 90 at 0.9", p50, tail, q)
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()

	bodies := make([][]byte, 5)
	for i := range bodies {
		bodies[i] = []byte("{}\n")
	}
	const rate = 100 // one body due every 10ms
	res := openLoop(context.Background(), ts.URL, bodies, rate, 1, time.Now(), nil)
	for i, r := range res {
		if r.err != nil || r.status != http.StatusAccepted {
			t.Fatalf("body %d: status %d, err %v", i, r.status, r.err)
		}
	}
	if res[0].latency() < stall {
		t.Errorf("stalled request latency %v, want at least %v", res[0].latency(), stall)
	}
	// Every later body was due before the stall ended, so each waits for it
	// and its latency, counted from its due time, includes that wait.
	for i := 1; i < len(res); i++ {
		due := time.Duration(i) * time.Second / rate
		if min := stall - due - 5*time.Millisecond; res[i].latency() < min || res[i].late() < min {
			t.Errorf("body %d: latency %v, late %v; want both at least %v", i, res[i].latency(), res[i].late(), min)
		}
	}
}

func TestGateRejectsTamperedDigest(t *testing.T) {
	ds := []policy.Decision{
		{Slot: 3, Taxi: 1, Region: 7, Action: sim.Action{Kind: sim.Stay}},
		{Slot: 3, Taxi: 4, Region: 2, Action: sim.Action{Kind: sim.Move, Arg: 5}},
		{Slot: 3, Taxi: 9, Region: 2, Action: sim.Action{Kind: sim.Charge, Arg: 1}},
	}
	vacant := []int{1, 4, 9}
	d := newDecisionDigest()
	d.add(3, vacant, ds)
	want := serve.DigestDecisions(ds)
	if len(d.bad) != 0 {
		t.Fatalf("well-formed slot flagged: %v", d.bad)
	}

	var g gate
	g.equal("digest", want, d.sum())
	if !g.ok() {
		t.Fatalf("re-derived digest %s differs from the service's %s", d.sum(), want)
	}

	tampered := []byte(want)
	tampered[5] ^= 1
	g.equal("digest", want, string(tampered))
	if g.ok() {
		t.Fatal("gate accepted a tampered digest")
	}

	// Flagged: a slot with a decision missing (the count, and the taxi
	// after the gap), a duplicated taxi, and each decision of a slot
	// stamped with another slot.
	for _, c := range []struct {
		slot int
		ds   []policy.Decision
		want int
	}{
		{3, []policy.Decision{ds[0], ds[2]}, 2},
		{3, []policy.Decision{ds[0], ds[0], ds[2]}, 1},
		{4, ds, 3},
	} {
		bad := newDecisionDigest()
		bad.add(c.slot, vacant, c.ds)
		if len(bad.bad) != c.want {
			t.Errorf("slot %d %v: flagged %d, want %d: %v", c.slot, c.ds, len(bad.bad), c.want, bad.bad)
		}
	}
}

func TestRenderFailsOnMissingMetric(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	o.gate.check(true, "something")
	for _, d := range endToEnd[1:] {
		o.values[d.name] = 1
	}
	if r := render(o, endToEnd); r.Correct {
		t.Fatalf("result without %s reported correct", endToEnd[0].name)
	}
}

func TestSlotCloses(t *testing.T) {
	// Slots of 10 minutes from minute 0; bodies carry these latest minutes.
	maxMin := []int{3, 10, 10, 12, 20, 25, 40}
	got, err := slotCloses(maxMin, 0, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 6, 6} // slot 2 (ends at 30) and 3 (ends at 40) both close on body 6
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slotCloses = %v, want %v", got, want)
		}
	}
	if _, err := slotCloses(maxMin, 0, 10, 5); err == nil {
		t.Fatal("a feed that ends before slot 4 closes was accepted")
	}
}

// TestNamesMatchBenchmarkFile checks that every workload and metric name
// uses only [A-Za-z0-9_.-] and that BENCHMARK.json lists exactly the
// workloads and metrics the program prints.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// Entries compare as "name unit"; workloads have no unit.
	check := func(kind string, file []named, prog []string) {
		var got []string
		for _, n := range file {
			if !nameRE.MatchString(n.Name) {
				t.Errorf("%s name %q uses characters outside [A-Za-z0-9_.-]", kind, n.Name)
			}
			got = append(got, n.Name+" "+n.Unit)
		}
		sort.Strings(got)
		sort.Strings(prog)
		if len(got) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json lists %v, program has %v", kind, got, prog)
		}
		for i := range got {
			if got[i] != prog[i] {
				t.Fatalf("%s: BENCHMARK.json lists %v, program has %v", kind, got, prog)
			}
		}
	}
	var ws, e2e, pl []string
	for _, w := range workloads {
		ws = append(ws, w.name+" ")
	}
	for _, d := range endToEnd {
		e2e = append(e2e, d.name+" "+d.unit)
	}
	for _, d := range perLayer {
		pl = append(pl, d.name+" "+d.unit)
	}
	check("workload", b.Workloads, ws)
	check("end_to_end", b.EndToEnd, e2e)
	check("per_layer", b.PerLayer, pl)
	if !nameRE.MatchString("a.b_c-1") || nameRE.MatchString("bad name") || nameRE.MatchString("p95%") {
		t.Error("nameRE accepts or rejects the wrong names")
	}
}

func TestSplitKeepsOrderAndCoversAll(t *testing.T) {
	xs := make([]time.Duration, 10)
	for i := range xs {
		xs[i] = time.Duration(i)
	}
	parts := split(xs, 3)
	if len(parts) != 3 || len(parts[0])+len(parts[1])+len(parts[2]) != 10 || parts[2][len(parts[2])-1] != 9 {
		t.Fatalf("split(10, 3) = %v", parts)
	}
	if got := split(xs, 1); len(got) != 1 || len(got[0]) != 10 {
		t.Fatalf("split(10, 1) = %v", got)
	}
	if got := split(xs[:2], 3); len(got) != 1 {
		t.Fatalf("split(2, 3) = %v, want the samples whole", got)
	}
}

func TestUnstolenWallRemovesStolenTime(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		p    part
		want time.Duration
	}{
		{"nothing stolen", part{wall: 100 * ms, cpu: 150 * ms}, 100 * ms},
		// One thread runs 80 ms and waits 20 ms stolen.
		{"serial", part{wall: 100 * ms, cpu: 80 * ms, steal: 20 * ms}, 80 * ms},
		// Two threads run 80 ms each and each waits 20 ms stolen.
		{"parallel", part{wall: 100 * ms, cpu: 160 * ms, steal: 40 * ms}, 80 * ms},
	}
	for _, c := range cases {
		if got := c.p.unstolenWall(); got != c.want {
			t.Errorf("%s: unstolenWall = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLowQuartileIgnoresSlowedRuns(t *testing.T) {
	ms := time.Millisecond
	// Six runs of 100 slots: two at 3 ms per slot, four slowed to 5 ms.
	var w window
	for _, cpu := range []time.Duration{500, 300, 500, 500, 300, 500} {
		w.parts = append(w.parts, part{wall: cpu * ms, cpu: cpu * ms, slots: 100})
	}
	o := newOutcome()
	endToEndValues(o, w, 1)
	if got := o.values["cpu_ms_per_slot"]; math.Abs(got-13.0/3) > 1e-9 {
		t.Errorf("whole window: cpu_ms_per_slot = %v, want %v", got, 13.0/3)
	}
	w.lowQuartile = true
	o = newOutcome()
	endToEndValues(o, w, 1)
	if got := o.values["cpu_ms_per_slot"]; got != 3 {
		t.Errorf("lowQuartile window: cpu_ms_per_slot = %v, want 3", got)
	}
	if got := o.values["slots_per_s"]; math.Abs(got-1000.0/3) > 1e-9 {
		t.Errorf("lowQuartile window: slots_per_s = %v, want %v", got, 1000.0/3)
	}
}
