package nn

import (
	"context"
	"fmt"

	"repro/internal/parallel"
)

// ForwardBatch runs inference on a whole batch with one blocked GEMM per
// layer plus a fused bias/activation epilogue — the batch-first path that
// replaced the old per-row sharding. The returned matrix is the network's
// last activation arena, reused by the next inference call on this network:
// callers that keep it longer must copy it out.
//
// With workers > 1 the batch rows are split into contiguous blocks and each
// worker runs the full layer stack over its own block — rows are independent
// in a feed-forward net, so no cross-layer barrier is needed. Every output
// element is produced by one accumulator chain in ascending-k order
// regardless of the row partition (see gemm.go), so the result is
// byte-identical for any worker count. Workers write disjoint row ranges of
// the shared arenas; steady-state calls with a stable batch shape allocate
// nothing.
func (m *MLP) ForwardBatch(x *Mat, workers int) *Mat {
	return m.ForwardBlocks(x, workers, nil, nil)
}

// ForwardBlocks is ForwardBatch with per-block hooks run inside the same
// fan-out: each block of rows [lo, hi) (block is its index, below the
// resolved worker count) first runs pre, which may fill those rows of x,
// then the layer stack, then post, which may read those rows of out, the
// returned output arena. Either hook may be nil. The hooks of different
// blocks run concurrently, so each must touch only its own rows and its
// own block's state; callers that build them once and keep them (rather
// than a closure per call) keep the steady state allocation-free.
func (m *MLP) ForwardBlocks(x *Mat, workers int, pre func(block, lo, hi int), post func(block, lo, hi int, out *Mat)) *Mat {
	if x.Cols != m.InputSize() {
		panic(fmt.Sprintf("nn: ForwardBatch expected %d features, got %d", m.InputSize(), x.Cols))
	}
	n := x.Rows
	if len(m.batchActs) != len(m.Layers) {
		m.batchActs = make([]*Mat, len(m.Layers))
	}
	for i, l := range m.Layers {
		m.batchActs[i] = ensureMat(m.batchActs[i], n, l.Out)
	}
	out := m.batchActs[len(m.batchActs)-1]
	serial := workers == 1 || n == 1
	var chunks [][2]int
	if !serial {
		chunks = parallel.Chunks(n, workers)
		serial = len(chunks) <= 1
	}
	if blocks := max(1, len(chunks)); len(m.batchGemm) < blocks {
		m.batchGemm = make([]gemmScratch, blocks)
	}
	if serial {
		m.hookedBlock(x, 0, 0, n, pre, post)
		return out
	}
	// Each chunk writes a disjoint row range of every arena; no worker
	// returns an error, so ForEach cannot fail short of a panic (which it
	// re-raises here).
	_ = parallel.ForEach(context.Background(), len(chunks), len(chunks), func(_ context.Context, c int) error {
		m.hookedBlock(x, c, chunks[c][0], chunks[c][1], pre, post)
		return nil
	})
	return out
}

// hookedBlock runs one block of ForwardBlocks: pre, forwardBlock with the
// block's own GEMM scratch, post.
func (m *MLP) hookedBlock(x *Mat, block, lo, hi int, pre func(block, lo, hi int), post func(block, lo, hi int, out *Mat)) {
	if pre != nil {
		pre(block, lo, hi)
	}
	m.forwardBlock(x, lo, hi, &m.batchGemm[block])
	if post != nil {
		post(block, lo, hi, m.batchActs[len(m.batchActs)-1])
	}
}

// forwardBlock runs every layer over rows [lo, hi) of the batch, reading x
// and writing the corresponding rows of the layer arenas; gemm is the
// block's own GEMM packing scratch.
func (m *MLP) forwardBlock(x *Mat, lo, hi int, gemm *gemmScratch) {
	in := x
	rows := hi - lo
	for li, l := range m.Layers {
		z := m.batchActs[li]
		gemmNT(gemm, rows, l.Out, l.In, in.Data[lo*in.Cols:], in.Cols, l.W.Data, l.In, z.Data[lo*z.Cols:], z.Cols)
		for r := lo; r < hi; r++ {
			applyBiasAct(z.Row(r), l.B, l.Act)
		}
		in = z
	}
}
