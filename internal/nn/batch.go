package nn

import (
	"fmt"

	"repro/internal/parallel"
)

// tileRows is the row count of one tile of the inference path: each worker
// block runs its rows through the whole layer stack tileRows at a time, so
// one layer's tile output (512 rows × 64 floats, 128 KiB at the deployed
// width) is still in L2 when the next layer's GEMM reads it, and the
// inference working set does not grow with the batch.
const tileRows = 512

// tileScratch is one worker block's inference scratch: the input tile the
// pre hook fills, two layer-output tiles used alternately (layer i writes
// act[i%2] and the next layer reads it), and the block's GEMM packing
// space. Each buffer holds at most tileRows rows.
type tileScratch struct {
	x    *Mat
	act  [2]*Mat
	gemm gemmScratch
}

// inferCall is the running inference call, read by every block: either
// ForwardBatch's input x (the last layer then writes the result rows of
// out) or ForwardBlocks' hooks.
type inferCall struct {
	x         *Mat
	pre       func(block, lo, hi int, x *Mat)
	post      func(block, lo, hi int, out *Mat)
	n, blocks int
}

// ForwardBatch runs inference on a whole batch and returns the network's
// output arena, reused by the next inference call on this network: callers
// that keep it longer must copy it out.
//
// It runs ForwardBlocks' fan-out with x's rows as the input tiles and the
// result rows as the output: every layer is one blocked GEMM per tile plus
// a fused bias/activation epilogue. Every output element is produced by
// one accumulator chain in ascending-k order whichever rows a GEMM call
// covers (see gemm.go), so the result is byte-identical for any worker
// count and tile split. Steady-state calls with a stable batch shape
// allocate nothing.
func (m *MLP) ForwardBatch(x *Mat, workers int) *Mat {
	if x.Cols != m.InputSize() {
		panic(fmt.Sprintf("nn: ForwardBatch expected %d features, got %d", m.InputSize(), x.Cols))
	}
	m.out = ensureMat(m.out, x.Rows, m.OutputSize())
	m.infer(inferCall{x: x, n: x.Rows}, workers)
	return m.out
}

// ForwardBlocks runs inference on n rows that exist only as tiles: the
// rows are split into contiguous blocks, one per worker, and each block
// walks its rows tileRows at a time. For each tile of rows [lo, hi) it
// calls pre, which must fill x (hi-lo rows of InputSize features) with
// those rows' inputs, runs the layer stack over the tile, then calls post
// with the tile's outputs (hi-lo rows of OutputSize, valid until post
// returns). block is the tile's block index, below the resolved worker
// count; a block's tiles run in ascending order and never cross its
// boundary, so each row passes through pre and post exactly once. The
// hooks of different blocks run concurrently, so each must touch only its
// own rows and its own block's state. Callers that build the hooks once
// and keep them (rather than a closure per call) keep the steady state
// allocation-free; only the hooks' own per-row outputs need be n-sized.
func (m *MLP) ForwardBlocks(n, workers int, pre func(block, lo, hi int, x *Mat), post func(block, lo, hi int, out *Mat)) {
	m.infer(inferCall{pre: pre, post: post, n: n}, workers)
}

// infer fans c out over min(workers, n) blocks, running the first on the
// calling goroutine.
func (m *MLP) infer(c inferCall, workers int) {
	c.blocks = min(parallel.Resolve(workers), c.n)
	if c.blocks <= 0 {
		return
	}
	if len(m.tiles) < c.blocks {
		m.tiles = append(m.tiles, make([]tileScratch, c.blocks-len(m.tiles))...)
	}
	if m.runBlock == nil {
		m.runBlock = m.forwardBlock
	}
	m.call = c
	m.fan.Run(c.blocks, m.runBlock)
	m.call = inferCall{}
}

// forwardBlock runs block's rows of the current call through the layer
// stack, one tile at a time.
func (m *MLP) forwardBlock(block int) {
	lo, hi := parallel.Chunk(m.call.n, m.call.blocks, block)
	for t := lo; t < hi; t += tileRows {
		m.forwardTile(&m.tiles[block], block, t, min(t+tileRows, hi))
	}
}

// forwardTile runs rows [lo, hi) through every layer in s's tiles: the
// input rows come from the call's x or its pre hook, and the last layer
// writes the result rows of out or a tile handed to the post hook.
func (m *MLP) forwardTile(s *tileScratch, block, lo, hi int) {
	c := &m.call
	rows := hi - lo
	var in []float32
	if c.x != nil {
		in = c.x.Data[lo*c.x.Cols : hi*c.x.Cols]
	} else {
		s.x = ensureMat(s.x, rows, m.InputSize())
		c.pre(block, lo, hi, s.x)
		in = s.x.Data
	}
	last := len(m.Layers) - 1
	for li, l := range m.Layers {
		var z []float32
		if li == last && c.x != nil {
			z = m.out.Data[lo*l.Out : hi*l.Out]
		} else {
			s.act[li%2] = ensureMat(s.act[li%2], rows, l.Out)
			z = s.act[li%2].Data
		}
		gemmNT(&s.gemm, rows, l.Out, l.In, in, l.In, l.W.Data, l.In, z, l.Out)
		for r := 0; r < rows; r++ {
			applyBiasAct(z[r*l.Out:(r+1)*l.Out], l.B, l.Act)
		}
		in = z
	}
	if c.x == nil {
		c.post(block, lo, hi, s.act[last%2])
	}
}
