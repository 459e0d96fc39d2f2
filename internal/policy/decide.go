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
// vacant set does everything but the draw, one tile of rows at a time
// (nn.MLP.ForwardBlocks): each tile fills its float32 observation rows
// (Environment.ObserveRows), runs the net's layer stack and writes its
// per-row outputs — for a sampled decide the masked softmax rows with
// their draw totals (rng.WeightedTotal), for an ε-greedy one the masks and
// masked-argmax actions. Only those outputs are sized by the vacant set.
// One serial pass then draws from the learner's stream in vacant order —
// rng.WeightedDraw, or DQN's ε-greedy choice — the draws a per-taxi
// Observe → forward → choose loop makes, so the actions are byte-identical
// for any worker count.
type Decider struct {
	// Per-call parameters, read by the tile hooks.
	env     sim.Environment
	vacant  []int
	sampled bool

	// Per-row outputs: probs (sim.NumActions per vacant taxi) and totals
	// (rng.WeightedTotal of each probs row) for a sampled decide; masks and
	// greedy (maskedArgmax) for an ε-greedy one.
	probs  []float64
	totals []float64
	masks  [][sim.NumActions]bool
	greedy []int8

	// blocks is each fan-out block's tile scratch and busy times; timed is
	// set when timers are installed.
	blocks []deciderBlock
	timed  bool

	// The hooks handed to ForwardBlocks, built once (a method value made
	// per call would allocate per call).
	pre  func(block, lo, hi int, x *nn.Mat)
	post func(block, lo, hi int, out *nn.Mat)

	tel decideTel
}

// deciderBlock is one fan-out block's state: the masks of its current tile
// (a sampled decide's masks die with the tile) and its busy times, summed
// over its tiles; observed marks the end of the current tile's observe,
// where its forward pass starts.
type deciderBlock struct {
	masks                      [][sim.NumActions]bool
	observe, forward, epilogue time.Duration
	observed                   time.Time
}

// decideTel holds the decide timers: prepare is the serial PrepareObserve,
// observe and forward are summed worker busy time, sample the epilogues'
// busy time (softmax, or DQN's argmax) plus the serial choice. Nil handles
// no-op and the clock is not read.
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
		d.pre, d.post = d.observeTile, d.chooseTile
	}
	d.timed = d.tel.observe != nil
	prep := d.tel.prepare.Start()
	env.PrepareObserve(vacant)
	prep.Stop()
	d.env, d.vacant, d.sampled = env, vacant, sampled
	if sampled {
		d.probs = growTo(d.probs, n*sim.NumActions)
		d.totals = growTo(d.totals, n)
	} else {
		d.masks = growTo(d.masks, n)
		d.greedy = growTo(d.greedy, n)
	}
	if blocks := parallel.Resolve(workers); len(d.blocks) < blocks {
		d.blocks = append(d.blocks, make([]deciderBlock, blocks-len(d.blocks))...)
	}
	for i := range d.blocks {
		b := &d.blocks[i]
		b.observe, b.forward, b.epilogue = 0, 0, 0
	}

	net.ForwardBlocks(n, workers, d.pre, d.post)

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
			actions[id] = sim.ActionFromIndex(epsGreedy(src, int(d.greedy[i]), d.masks[i], eps))
		}
	}
	d.env, d.vacant = nil, nil
	if d.timed {
		choose := time.Since(chooseStart)
		var sum deciderBlock
		for _, b := range d.blocks {
			sum.observe += b.observe
			sum.forward += b.forward
			sum.epilogue += b.epilogue
		}
		d.tel.observe.Observe(sum.observe)
		d.tel.forward.Observe(sum.forward)
		d.tel.sample.Observe(sum.epilogue + choose)
	}
	return actions
}

// growTo returns buf resliced to n, reallocating only when it is too small.
func growTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// tileMasks returns the masks of rows [lo, hi): for a sampled decide the
// block's tile buffer, else those rows of the per-row masks the ε-greedy
// choice reads.
func (d *Decider) tileMasks(block, lo, hi int) [][sim.NumActions]bool {
	if !d.sampled {
		return d.masks[lo:hi]
	}
	b := &d.blocks[block]
	b.masks = growTo(b.masks, hi-lo)
	return b.masks
}

// observeTile is the fan-out's prologue: the observation rows and masks of
// the tile vacant[lo:hi].
func (d *Decider) observeTile(block, lo, hi int, x *nn.Mat) {
	var start time.Time
	if d.timed {
		start = time.Now()
	}
	d.env.ObserveRows(d.vacant[lo:hi], x.Data, d.tileMasks(block, lo, hi))
	if d.timed {
		b := &d.blocks[block]
		b.observed = time.Now()
		b.observe += b.observed.Sub(start)
	}
}

// chooseTile is the fan-out's epilogue over the tile's output rows: for a
// sampled decide their masked softmax and draw totals, else their masked
// argmax. The time since the tile's observe ended is its forward pass.
func (d *Decider) chooseTile(block, lo, hi int, out *nn.Mat) {
	b := &d.blocks[block]
	var start time.Time
	if d.timed {
		start = time.Now()
		b.forward += start.Sub(b.observed)
	}
	masks := d.tileMasks(block, lo, hi)
	for r, mask := range masks {
		i := lo + r
		if d.sampled {
			p := d.probs[i*sim.NumActions : (i+1)*sim.NumActions]
			nn.SoftmaxInto(out.Row(r), mask[:], p)
			d.totals[i], _ = rng.WeightedTotal(p)
		} else {
			a, _ := maskedArgmax(out.Row(r), mask)
			d.greedy[i] = int8(a)
		}
	}
	if d.timed {
		b.epilogue += time.Since(start)
	}
}
