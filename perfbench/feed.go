package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	fairmove "repro"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
)

// ingestBatch is the events per POST /ingest body, the service client's
// default batch size.
const ingestBatch = 256

// feedSpec is the open-loop ingest workload: the ground-truth event feed of
// a fleet is posted over loopback HTTP at a fixed rate, and the event
// watermark, not the caller, releases the slots.
type feedSpec struct {
	name   string
	fleet  int
	warmup int // slots fed during set-up
	// rate is the send schedule in batches per second. It sits below the
	// service's ingest capacity on the reference host, so a steady run sees
	// no 429.
	rate  float64
	conns int
	// nominal is the slots per second the rate releases (about 1,100 events,
	// 4.3 batches, per slot at 1,000 taxis); it sizes the window.
	nominal float64
}

// feedGT1k: 1,000 taxis under GT, 160 batches/s (40,960 events/s) from two
// connections. Ingest dominates here; the engine step is sub-millisecond.
var feedGT1k = feedSpec{name: "feed-gt-1k", fleet: 1000, warmup: 12, rate: 160, conns: 2, nominal: 37}

// feedRig is one set-up service with its recorded feed.
type feedRig struct {
	sys     *fairmove.System
	env     sim.Environment
	pol     policy.Policy // the policy served, never a traced wrapper
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	bodies  [][]byte
	closes  []int // closes[k]: index of the first body that releases slot k
	base    int   // the service's slot index before the first slot
	recordS float64
	buildS  float64
}

// setup builds the system, records and encodes total slots of feed, starts
// the service behind a loopback listener and feeds the warm-up slots.
func (fs feedSpec) setup(ctx context.Context, seed int64, total int, tr *tracer) (*feedRig, error) {
	cfg := fairmove.DefaultConfig(citySeed)
	cfg.Fleet = fs.fleet
	slotsPerDay := 24 * 60 / cfg.SlotMinutes
	cfg.Days = (total + slotsPerDay - 1) / slotsPerDay
	start := time.Now()
	s, err := fairmove.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	rig := &feedRig{sys: s, buildS: time.Since(start).Seconds()}
	if tr != nil {
		s.SetTelemetry(tr.reg)
	}
	pol, err := s.PolicyFor(fairmove.GT)
	if err != nil {
		return nil, err
	}

	start = time.Now()
	events := serve.RecordFeed(s.City(), s.EvalOptions(), seed, total)
	var maxMin []int
	if rig.bodies, maxMin, err = encodeBodies(events, ingestBatch); err != nil {
		return nil, err
	}
	rig.recordS = time.Since(start).Seconds()

	rig.env, rig.pol = s.EvalEnv(), pol
	srvEnv, srvPol := rig.env, pol
	if tr != nil {
		srvEnv, srvPol = tracedEnv{rig.env, tr}, tracedPolicy{pol, tr}
	}
	rig.srv, err = serve.New(serve.Config{Env: srvEnv, Policy: srvPol, Seed: seed})
	if err != nil {
		return nil, err
	}
	rig.base = rig.srv.Slot()
	if rig.closes, err = slotCloses(maxMin, rig.srv.Now(), rig.env.SlotLen(), total); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.url = "http://" + ln.Addr().String() + "/ingest"
	rig.srv.Start()
	rig.hs = &http.Server{Handler: rig.srv.Handler()}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.hs.Serve(ln) }()

	warm := rig.bodies[:rig.closes[fs.warmup-1]+1]
	for _, r := range openLoop(ctx, rig.url, warm, fs.rate, fs.conns, time.Now(), nil) {
		if r.err != nil || r.status != http.StatusAccepted {
			rig.stop()
			return nil, fmt.Errorf("warm-up ingest: status %d: %v", r.status, r.err)
		}
	}
	if err := rig.awaitSlot(fs.warmup - 1); err != nil {
		rig.stop()
		return nil, err
	}
	return rig, nil
}

// slotCloses maps each of total slots to the first body whose latest event
// reaches the slot's end minute: the watermark releases slot k once an
// event at or past t0+(k+1)·slotLen is ingested.
func slotCloses(maxMin []int, t0, slotLen, total int) ([]int, error) {
	closes := make([]int, total)
	b, seen := 0, -1
	for k := 0; k < total; k++ {
		end := t0 + (k+1)*slotLen
		for seen < end && b < len(maxMin) {
			if maxMin[b] > seen {
				seen = maxMin[b]
			}
			b++
		}
		if seen < end {
			return nil, fmt.Errorf("feed ends before slot %d closes", k)
		}
		closes[k] = b - 1
	}
	return closes, nil
}

// awaitSlot waits until slot k (relative to the run's first slot) has been
// published.
func (r *feedRig) awaitSlot(k int) error {
	deadline := time.Now().Add(10 * time.Second)
	for r.srv.Slot() <= r.base+k {
		if time.Now().After(deadline) {
			return fmt.Errorf("slot %d not published within 10s", k)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// stop drains the service and closes the listener, waiting for both.
func (r *feedRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.srv.Drain(ctx) // a stuck driver shows as a failed digest check
	if r.hs != nil {
		_ = r.hs.Shutdown(ctx) // idle keep-alive connections only; the drain already finished
		if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("http server: %v\n", err)
		}
		r.hs = nil
	}
}

// feedPass is one set-up-and-window of the feed workload.
type feedPass struct {
	setupS float64
	win    window
	sends  []sendResult
	events int // events posted in the window
	qmax   int
}

// measure sets up repeats times (keeping the last rig), feeds the window
// open loop, times every slot from the due time of the body that closes it,
// and applies the correctness gate.
func (fs feedSpec) measure(ctx context.Context, opts runOpts, n, repeats int, tr *tracer, o *outcome) (feedPass, error) {
	var p feedPass
	var rig *feedRig
	var times []float64
	total := fs.warmup + n
	for i := 0; i < repeats; i++ {
		if rig != nil {
			rig.stop()
			rig = nil
		}
		runtime.GC()
		start := cpuTime()
		var err error
		if rig, err = fs.setup(ctx, opts.seed, total, tr); err != nil {
			return p, fmt.Errorf("setup: %w", err)
		}
		times = append(times, (cpuTime() - start).Seconds())
	}
	p.setupS = median(times)

	first := rig.closes[fs.warmup-1] + 1
	bodies := rig.bodies[first:]
	done := make([]chan struct{}, len(bodies))
	for i := range done {
		done[i] = make(chan struct{})
	}
	depth := make([]int, len(bodies))
	if tr != nil {
		tr.reset()
	}
	p.win.heap = liveHeapMiB()
	p.win.paced = true
	snap0 := telemetrySnapshot(tr)
	rej0 := rig.srv.Registry().Snapshot().Counters["serve.ingest.rejected_batches"]
	ms0 := memSnap()
	c0, t0 := cpuTime(), time.Now()
	due := t0.Add(20 * time.Millisecond)

	// The watcher records when each window slot is published: after the
	// body that closes it has been answered, it polls the service's slot
	// clock.
	pub := make([]time.Time, n)
	watchErr := make(chan error, 1)
	every := partEvery(n)
	p.win.markAt(0)
	go func() {
		for k := 0; k < n; k++ {
			<-done[rig.closes[fs.warmup+k]-first]
			if err := rig.awaitSlot(fs.warmup + k); err != nil {
				watchErr <- err
				return
			}
			pub[k] = time.Now()
			if (k+1)%every == 0 {
				p.win.markAt(k + 1)
			}
		}
		watchErr <- nil
	}()
	p.sends = openLoop(ctx, rig.url, bodies, fs.rate, fs.conns, due, func(i int) {
		depth[i] = rig.srv.QueueDepth()
		close(done[i])
	})
	werr := <-watchErr
	p.win.wall = time.Since(t0)
	p.win.cpu = cpuTime() - c0
	ms1 := memSnap()
	snap1 := telemetrySnapshot(tr)
	if tr != nil {
		p.win.heapEnd = liveHeapMiB()
	}
	rejected := rig.srv.Registry().Snapshot().Counters["serve.ingest.rejected_batches"] - rej0
	rig.stop()

	interval := time.Duration(float64(time.Second) / fs.rate)
	for i, s := range p.sends {
		o.attempted++
		if s.err != nil || s.status != http.StatusAccepted {
			o.failed++
			if o.failed <= 3 {
				fmt.Printf("ingest batch %d: status %d %v\n", i, s.status, s.err)
			}
		}
		if depth[i] > p.qmax {
			p.qmax = depth[i]
		}
	}
	o.gate.check(int(rejected) == 0, "no ingest batch refused with 429 (%d refused)", rejected)
	o.attempted += n
	if werr != nil {
		o.failed += n
		o.gate.fail("window slots: %v", werr)
	} else {
		for k := 0; k < n; k++ {
			closer := rig.closes[fs.warmup+k] - first
			d := pub[k].Sub(due.Add(time.Duration(closer) * interval))
			p.win.lat = append(p.win.lat, d)
			if tr != nil {
				tr.add(span{Name: "slot", Trace: rig.base + fs.warmup + k,
					Start: tr.ns(due.Add(time.Duration(closer) * interval)), End: tr.ns(pub[k])})
			}
		}
		p.win.slots = n
	}

	served, generated := checkServed(&o.gate, fs.name, rig.srv, rig.sys, rig.pol, opts.seed, total, tr != nil)
	for _, b := range bodies {
		p.events += bytes.Count(b, []byte{'\n'})
	}
	if tr == nil || p.win.slots == 0 {
		return p, nil
	}

	tr.slotLayers(o, n, snap1.Diff(snap0))
	for i, s := range p.sends {
		tr.add(span{Name: "serve.ingest", Trace: first + i, Start: tr.ns(s.due), End: tr.ns(s.done)})
	}
	runtimeLayers(o, ms0, ms1, p.win.heap, p.win.heapEnd, n)
	o.values["sim.served_over_generated"] = float64(served) / float64(generated)
	o.values["synth.build_s"] = rig.buildS
	o.values["serve.feed_record_s"] = rig.recordS
	o.values["serve.queue_depth_max"] = float64(p.qmax)
	o.values["serve.rejected"] = float64(rejected)
	notExercised(o, "checkpoint.load_s", "core.pretrain_s", "core.finetune_s", "core.train_s")
	o.values["nn.forward_batch_ms"], o.values["nn.forward_flops"] = forwardBench(medianInt(tr.vacantCounts()))
	var err error
	if o.values["serve.parse_us_per_batch"], err = parseBench(bodies); err != nil {
		return p, err
	}
	path, err := tr.write(opts.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", fs.name, opts.seed))
	if err != nil {
		return p, err
	}
	fmt.Printf("spans written to %s\n", path)
	return p, nil
}

// ingestValues fills the ingest latency and generator lateness metrics.
func ingestValues(o *outcome, sends []sendResult) {
	lat := make([]time.Duration, 0, len(sends))
	late := make([]float64, 0, len(sends))
	for _, s := range sends {
		if s.err == nil {
			lat = append(lat, s.latency())
			late = append(late, float64(s.late())/1e6)
		}
	}
	o.values["serve.ingest_p50_ms"], o.values["serve.ingest_p95_ms"], _ = latencySummary(lat)
	sort.Float64s(late)
	q, _ := tailQuantile(len(late))
	o.values["loadgen.late_p95_ms"] = percentile(late, q)
}

// run is the workload entry point.
func (fs feedSpec) run(opts runOpts) (*outcome, error) {
	ctx := context.Background()
	n := windowSlots(opts.seconds, fs.nominal, slotsPerHour)
	fmt.Printf("window %d slots after %d warm-up slots, %g batches/s over %d connections\n", n, fs.warmup, fs.rate, fs.conns)
	o := newOutcome()
	repeats := setupRepeats
	if opts.traced {
		repeats = 1
	}
	base, err := fs.measure(ctx, opts, n, repeats, nil, o)
	if err != nil {
		return nil, err
	}
	endToEndValues(o, base.win, base.setupS)
	if !opts.traced {
		return o, nil
	}
	slotTail(o, base.win)
	// Ingest latency, generator lateness and ingest CPU come from the
	// untraced pass: tracing adds driver work they should not carry.
	ingestValues(o, base.sends)
	o.values["serve.cpu_us_per_event"] = float64(base.win.cpu) / 1e3 / float64(base.events)
	traced, err := fs.measure(ctx, opts, n, 1, newTracer(), o)
	if err != nil {
		return nil, err
	}
	// The feed is open loop at a fixed rate, so tracing cannot change its
	// slots per second; its overhead shows as CPU per slot.
	o.values["trace.overhead_frac"] = float64(traced.win.cpu)/float64(traced.win.slots)/(float64(base.win.cpu)/float64(base.win.slots)) - 1
	return o, nil
}

// encodeBodies splits events into NDJSON ingest bodies of batch events each
// and returns, per body, the latest event minute it carries.
func encodeBodies(events []serve.Event, batch int) (bodies [][]byte, maxMin []int, err error) {
	for lo := 0; lo < len(events); lo += batch {
		hi := lo + batch
		if hi > len(events) {
			hi = len(events)
		}
		body, err := serve.EncodeBatch(events[lo:hi])
		if err != nil {
			return nil, nil, err
		}
		m := -1
		for _, ev := range events[lo:hi] {
			if ev.TimeMin > m {
				m = ev.TimeMin
			}
		}
		bodies = append(bodies, body)
		maxMin = append(maxMin, m)
	}
	return bodies, maxMin, nil
}
