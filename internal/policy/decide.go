package policy

import (
	"time"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Decider is the decide of every network learner: FairMove's CMA2C actor
// and TBA draw each vacant taxi's action from the masked softmax of the
// shared net's logits on its own observation (Act); DQN picks it
// ε-greedily over the shared Q-network's values (ActEpsGreedy). The zero
// value is ready to use; a Decider holds reused scratch and must not be
// copied after first use.
//
// Given the slot's regional state the per-taxi decisions are independent
// up to the random draw, so one fan-out over contiguous blocks of the
// vacant set does everything but the draw: each block fills its float32
// observation rows (Environment.ObserveRows), runs the net's layer stack
// (nn.MLP.ForwardBlocks) and, for a sampled decide, writes its masked
// softmax rows with their draw totals (rng.WeightedTotal). One serial pass
// then draws from the learner's stream in vacant order — rng.WeightedDraw,
// or DQN's ε-greedy choice — the draws a per-taxi Observe → forward →
// choose loop makes, so the actions are byte-identical for any worker
// count.
type Decider struct {
	// Per-call parameters and outputs, read and written by the block hooks.
	env     sim.Environment
	vacant  []int
	x       *nn.Mat
	masks   [][sim.NumActions]bool
	sampled bool      // the epilogue writes probs and totals
	probs   []float64 // sim.NumActions per vacant taxi
	totals  []float64 // rng.WeightedTotal of each probs row

	// The hooks handed to ForwardBlocks, built once (a method value made
	// per call would allocate per call).
	pre  func(block, lo, hi int)
	post func(block, lo, hi int, out *nn.Mat)

	// Per-block timings of the last call, summed into the timers after the
	// fan-out; timed is set when timers are installed.
	blockTimes []blockTimes
	timed      bool

	tel decideTel
}

// blockTimes is one fan-out block's busy times; observed marks the end of
// its observe, where its forward pass starts.
type blockTimes struct {
	observe, forward, softmax time.Duration
	observed                  time.Time
}

// decideTel holds the decide timers: prepare is the serial PrepareObserve,
// observe and forward are summed worker busy time, sample the softmax busy
// time plus the serial choice. Nil handles no-op and the clock is not read.
type decideTel struct {
	prepare, observe, forward, sample *telemetry.Timer
}

// SetTelemetry installs (or, with nil, removes) the policy.decide.prepare,
// policy.decide.observe, policy.decide.forward and policy.decide.sample
// timers. Like every Timer they are wall-clock and excluded from
// determinism comparisons.
func (d *Decider) SetTelemetry(r *telemetry.Registry) {
	if r == nil {
		d.tel = decideTel{}
		return
	}
	d.tel = decideTel{
		prepare: r.Timer("policy.decide.prepare"),
		observe: r.Timer("policy.decide.observe"),
		forward: r.Timer("policy.decide.forward"),
		sample:  r.Timer("policy.decide.sample"),
	}
}

// Act decides every taxi of vacant by sampling the masked softmax of the
// actor net's logits, drawing from src in vacant order. workers bounds the
// fan-out (<= 0 means GOMAXPROCS).
func (d *Decider) Act(env sim.Environment, net *nn.MLP, src *rng.Source, vacant []int, workers int) map[int]sim.Action {
	return d.decide(env, net, src, vacant, workers, true, 0)
}

// ActEpsGreedy decides every taxi of vacant ε-greedily over the Q-network
// net's values (epsGreedy), drawing from src in vacant order. workers
// bounds the fan-out (<= 0 means GOMAXPROCS).
func (d *Decider) ActEpsGreedy(env sim.Environment, net *nn.MLP, src *rng.Source, vacant []int, workers int, eps float64) map[int]sim.Action {
	return d.decide(env, net, src, vacant, workers, false, eps)
}

// decide is Act and ActEpsGreedy: PrepareObserve, the fan-out, then the
// serial choice, sampled or ε-greedy.
func (d *Decider) decide(env sim.Environment, net *nn.MLP, src *rng.Source, vacant []int, workers int, sampled bool, eps float64) map[int]sim.Action {
	n := len(vacant)
	actions := make(map[int]sim.Action, n)
	if n == 0 {
		return actions
	}
	if d.pre == nil {
		d.pre, d.post = d.observeBlock, d.epilogueBlock
	}
	d.timed = d.tel.observe != nil
	prep := d.tel.prepare.Start()
	env.PrepareObserve(vacant)
	prep.Stop()
	d.env, d.vacant, d.sampled = env, vacant, sampled
	d.x = nn.EnsureMat(d.x, n, sim.FeatureSize)
	if cap(d.masks) < n {
		d.masks = make([][sim.NumActions]bool, n)
		d.probs = make([]float64, n*sim.NumActions)
		d.totals = make([]float64, n)
	}
	d.masks, d.probs, d.totals = d.masks[:n], d.probs[:n*sim.NumActions], d.totals[:n]
	if d.timed {
		if blocks := parallel.Resolve(workers); len(d.blockTimes) < blocks {
			d.blockTimes = make([]blockTimes, blocks)
		}
		clear(d.blockTimes)
	}

	out := net.ForwardBlocks(d.x, workers, d.pre, d.post)

	var chooseStart time.Time
	if d.timed {
		chooseStart = time.Now()
	}
	if sampled {
		for i, id := range vacant {
			p := d.probs[i*sim.NumActions : (i+1)*sim.NumActions]
			actions[id] = sim.ActionFromIndex(src.WeightedDraw(p, d.totals[i]))
		}
	} else {
		for i, id := range vacant {
			actions[id] = sim.ActionFromIndex(epsGreedy(src, out.Row(i), d.masks[i], eps))
		}
	}
	d.env, d.vacant = nil, nil
	if d.timed {
		choose := time.Since(chooseStart)
		var sum blockTimes
		for _, bt := range d.blockTimes {
			sum.observe += bt.observe
			sum.forward += bt.forward
			sum.softmax += bt.softmax
		}
		d.tel.observe.Observe(sum.observe)
		d.tel.forward.Observe(sum.forward)
		d.tel.sample.Observe(sum.softmax + choose)
	}
	return actions
}

// observeBlock is the fan-out's prologue: the observation rows and masks
// of vacant[lo:hi].
func (d *Decider) observeBlock(block, lo, hi int) {
	var start time.Time
	if d.timed {
		start = time.Now()
	}
	d.env.ObserveRows(d.vacant[lo:hi], d.x.Data[lo*sim.FeatureSize:hi*sim.FeatureSize], d.masks[lo:hi])
	if d.timed {
		bt := &d.blockTimes[block]
		bt.observed = time.Now()
		bt.observe = bt.observed.Sub(start)
	}
}

// epilogueBlock is the fan-out's epilogue: for a sampled decide, the masked
// softmax of output rows [lo, hi) and their draw totals. The time since the
// block's observe ended is its forward pass.
func (d *Decider) epilogueBlock(block, lo, hi int, out *nn.Mat) {
	var start time.Time
	if d.timed {
		start = time.Now()
		d.blockTimes[block].forward = start.Sub(d.blockTimes[block].observed)
	}
	if !d.sampled {
		return
	}
	for i := lo; i < hi; i++ {
		p := d.probs[i*sim.NumActions : (i+1)*sim.NumActions]
		nn.SoftmaxInto(out.Row(i), d.masks[i][:], p)
		d.totals[i], _ = rng.WeightedTotal(p)
	}
	if d.timed {
		d.blockTimes[block].softmax = time.Since(start)
	}
}
