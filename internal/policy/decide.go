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
// vacant set does the decide one tile of rows at a time
// (nn.MLP.ForwardBlocks): each tile fills its float32 observation rows
// (Environment.ObserveRows), runs the net's layer stack and, in its
// epilogue, picks each row's action index. A sampled decide takes the
// stream value each row's draw starts from (rng.Source.Uint64) in vacant
// order before the fan-out, and the epilogue draws from the row's masked
// softmax with it (rng.WeightedDrawAt); an ε-greedy one keeps each row's
// mask and masked argmax. Only those per-row values are sized by the
// vacant set. One serial pass then builds the actions in vacant order —
// for DQN drawing its ε-greedy choice from the learner's stream — so the
// actions and the stream position are those of a per-taxi Observe →
// forward → choose loop, byte for byte, for any worker count.
type Decider struct {
	// Per-call parameters, read by the tile hooks: the rows of the current
	// fan-out, and off, the index of its first row in the per-row state.
	env     sim.Environment
	vacant  []int
	off     int
	sampled bool

	// Per-row state: picks is each row's action index from its epilogue
	// (the drawn one, or -1 when its stream value left the draw undecided,
	// for a sampled decide; the masked argmax for an ε-greedy one); draws
	// holds a sampled decide's stream values, masks an ε-greedy one's
	// masks.
	picks []int8
	draws []uint64
	masks [][sim.NumActions]bool

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
// (a sampled decide's masks die with the tile), the softmax row a sampled
// epilogue draws from, and its busy times, summed over its tiles; observed
// marks the end of the current tile's observe, where its forward pass
// starts.
type deciderBlock struct {
	masks                      [][sim.NumActions]bool
	probs                      [sim.NumActions]float64
	observe, forward, epilogue time.Duration
	observed                   time.Time
}

// decideTel holds the decide timers: prepare is the serial PrepareObserve,
// observe and forward are summed worker busy time, sample the epilogues'
// busy time (softmax and draw, or DQN's argmax) plus the serial pass that
// builds the actions. Nil handles no-op and the clock is not read.
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
// serial pass that builds the actions.
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
	d.env, d.sampled = env, sampled
	d.picks = growTo(d.picks, n)
	if sampled {
		d.draws = growTo(d.draws, n)
	} else {
		d.masks = growTo(d.masks, n)
	}
	if blocks := parallel.Resolve(workers); len(d.blocks) < blocks {
		d.blocks = append(d.blocks, make([]deciderBlock, blocks-len(d.blocks))...)
	}
	for i := range d.blocks {
		b := &d.blocks[i]
		b.observe, b.forward, b.epilogue = 0, 0, 0
	}

	if sampled {
		d.sampleRuns(net, src, vacant, workers)
	} else {
		d.vacant, d.off = vacant, 0
		net.ForwardBlocks(n, workers, d.pre, d.post)
	}

	var buildStart time.Time
	if d.timed {
		buildStart = time.Now()
	}
	for i, id := range vacant {
		a := int(d.picks[i])
		if !sampled {
			a = epsGreedy(src, a, d.masks[i], eps)
		}
		actions[id] = sim.ActionFromIndex(a)
	}
	d.env, d.vacant = nil, nil
	if d.timed {
		var sum deciderBlock
		for _, b := range d.blocks {
			sum.observe += b.observe
			sum.forward += b.forward
			sum.epilogue += b.epilogue
		}
		d.tel.observe.Observe(sum.observe)
		d.tel.forward.Observe(sum.forward)
		d.tel.sample.Observe(sum.epilogue + time.Since(buildStart))
	}
	return actions
}

// drawDecides reports whether stream value u decides a sampled row's draw
// whatever the row's probabilities. It does unless the row's total is not
// positive (NaN or fully masked logits) and Intn rejects u: 2^64 mod 14 = 2
// of the 2^64 values. A variable so a test can replace it with a predicate
// that is false for more values, never for fewer.
var drawDecides = func(u uint64) bool {
	_, ok := rng.WeightedDrawAt(zeroRow[:], 0, u)
	return ok
}

// zeroRow is a row with no positive probability: drawDecides draws
// uniformly over it.
var zeroRow [sim.NumActions]float64

// sampleRuns is a sampled decide's fan-out. It takes the rows' stream
// values from src in vacant order, then fans out over those rows, whose
// epilogues draw their actions. A value that might not decide its row's
// draw (drawDecides) ends a run there: the fan-out covers the rows up to
// and including it, and if that row's draw was left undecided, it is
// finished from src before the next run takes another value. Normally one
// run covers every row.
func (d *Decider) sampleRuns(net *nn.MLP, src *rng.Source, vacant []int, workers int) {
	for lo := 0; lo < len(vacant); {
		hi := lo
		for hi < len(vacant) {
			u := src.Uint64()
			d.draws[hi] = u
			hi++
			if !drawDecides(u) {
				break
			}
		}
		d.vacant, d.off = vacant[lo:hi], lo
		net.ForwardBlocks(hi-lo, workers, d.pre, d.post)
		if d.picks[hi-1] < 0 {
			d.picks[hi-1] = int8(src.Intn(sim.NumActions))
		}
		lo = hi
	}
}

// growTo returns buf resliced to n, reallocating only when it is too small.
func growTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// tileMasks returns the masks of rows [lo, hi) of the current fan-out: for
// a sampled decide the block's tile buffer, else those rows of the per-row
// masks the ε-greedy choice reads.
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
// sampled decide each row's masked softmax, its draw total and the draw
// from the row's stream value, else each row's masked argmax. The time
// since the tile's observe ended is its forward pass.
func (d *Decider) chooseTile(block, lo, hi int, out *nn.Mat) {
	b := &d.blocks[block]
	var start time.Time
	if d.timed {
		start = time.Now()
		b.forward += start.Sub(b.observed)
	}
	masks := d.tileMasks(block, lo, hi)
	for r, mask := range masks {
		i := d.off + lo + r
		if d.sampled {
			p := b.probs[:]
			nn.SoftmaxInto(out.Row(r), mask[:], p)
			total, _ := rng.WeightedTotal(p)
			a, ok := rng.WeightedDrawAt(p, total, d.draws[i])
			if !ok {
				a = -1
			}
			d.picks[i] = int8(a)
		} else {
			a, _ := maskedArgmax(out.Row(r), mask)
			d.picks[i] = int8(a)
		}
	}
	if d.timed {
		b.epilogue += time.Since(start)
	}
}
