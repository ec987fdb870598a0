package core

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
)

// This file implements the batched forward paths behind graph.InferBatch.
// Dense layers process the batch as one bgemm with M = B, so each tile of
// packed weight rows streams through the cache once per batch instead of
// once per image. Conv layers run the single-image sweep driver image by
// image inside one dispatch — the sweep already reads the whole filter
// bank once per window, so there is nothing left for a batch dimension to
// amortize but the dispatch. Per-image
// arithmetic is identical word-for-word to the single-image paths, so
// batched outputs are bit-identical to sequential ones.

// ForwardPackedBatch runs ForwardPacked over B = len(ins) images in one
// dispatch: each worker chunk walks its pixel range image by image. ins
// and outs must be pairwise legal ForwardPacked arguments.
func (cv *Conv) ForwardPackedBatch(ins, outs []*bitpack.Packed, ec *exec.Ctx) {
	if len(ins) == 0 || len(outs) != len(ins) {
		panic(fmt.Sprintf("core: conv batch %d inputs, %d outputs", len(ins), len(outs)))
	}
	for b, in := range ins {
		cv.checkPacked(in, outs[b])
	}
	ec.ParallelFor(cv.Shape.OutH*cv.Shape.OutW, func(start, end int) {
		var sc convScratch
		win, acc := sc.slices(cv) //bitflow:alloc-ok only an operator beyond the stack scratch allocates: one pair per worker chunk
		for b, in := range ins {
			cv.packedRange(in, outs[b], win, acc, start, end)
		}
	})
}

// ForwardFusedBatch is ForwardFused over B images in one dispatch. pl must
// satisfy CanFusePool (nil degenerates to ForwardPackedBatch); outs take
// the pool's output geometry.
func (cv *Conv) ForwardFusedBatch(ins []*bitpack.Packed, pl *Pool, outs []*bitpack.Packed, ec *exec.Ctx) {
	if pl == nil {
		cv.ForwardPackedBatch(ins, outs, ec)
		return
	}
	if len(ins) == 0 || len(outs) != len(ins) {
		panic(fmt.Sprintf("core: conv batch %d inputs, %d outputs", len(ins), len(outs)))
	}
	for b, in := range ins {
		cv.checkFused(in, pl, outs[b])
	}
	p := pl.Shape
	ec.ParallelFor(p.OutH*p.OutW, func(start, end int) {
		var sc convScratch
		win, acc := sc.slices(cv) //bitflow:alloc-ok only an operator beyond the stack scratch allocates: one pair per worker chunk
		for b, in := range ins {
			cv.fusedRange(in, p, outs[b], win, acc, start, end)
		}
	})
}

// DenseBatchScratch holds the flat staging buffers the batched dense
// paths need: the gathered M×N bit matrix for bgemm, its int32 product
// matrix, and per-image views of the pre-activations. It only ever grows
// (EnsureBatch semantics): size it once to the max batch and the batched
// forward paths allocate nothing afterwards.
type DenseBatchScratch struct {
	a    []uint64  // B*Plan.Words gathered activation rows (bgemm A)
	prod []int32   // B*K bgemm products
	pre  []int32   // B*K pre-activations (ForwardBatch destination)
	rows [][]int32 // per-image views of pre
}

// Ensure grows the scratch to serve batches of up to B images of d.
func (s *DenseBatchScratch) Ensure(d *Dense, B int) {
	if need := B * d.Plan.Words; cap(s.a) < need {
		s.a = make([]uint64, need)
	}
	if need := B * d.Shape.K; cap(s.prod) < need {
		s.prod = make([]int32, need)
		s.pre = make([]int32, need)
	}
	for len(s.rows) < B {
		b := len(s.rows)
		s.rows = append(s.rows, s.pre[b*d.Shape.K:(b+1)*d.Shape.K])
	}
	// A prior Ensure for a different operator (or a re-grown pre) can
	// leave stale views; rebuild when the first row does not alias pre.
	if len(s.rows) > 0 && (&s.rows[0][0] != &s.pre[0] || len(s.rows[0]) != d.Shape.K) {
		s.rows = s.rows[:0]
		for b := 0; b < B; b++ {
			s.rows = append(s.rows, s.pre[b*d.Shape.K:(b+1)*d.Shape.K])
		}
	}
}

// ForwardBatch computes the K inner products of B packed activation rows
// in one bgemm call with M = B: every packed weight row streams through
// the cache once per batch. out[b] receives image b's K products. s is
// caller-owned scratch, grown on demand.
func (d *Dense) ForwardBatch(ins [][]uint64, outs [][]int32, s *DenseBatchScratch, ec *exec.Ctx) {
	B := len(ins)
	if B == 0 || len(outs) != B {
		panic(fmt.Sprintf("core: dense batch %d inputs, %d outputs", B, len(outs)))
	}
	for b := 0; b < B; b++ {
		if len(ins[b]) != d.Plan.Words {
			panic(fmt.Sprintf("core: dense batch input %d has %d words, want %d", b, len(ins[b]), d.Plan.Words))
		}
		if len(outs[b]) != d.Shape.K {
			panic(fmt.Sprintf("core: dense batch output %d has len %d, want K=%d", b, len(outs[b]), d.Shape.K))
		}
	}
	s.Ensure(d, B)
	a := s.a[:B*d.Plan.Words]
	for b := 0; b < B; b++ {
		copy(a[b*d.Plan.Words:(b+1)*d.Plan.Words], ins[b])
	}
	out := s.prod[:B*d.Shape.K]
	opts := kernels.BGemmOpts{Width: d.Plan.Tier}
	kernels.BGemmExec(a, B, d.weights.Words, d.Shape.K, d.Plan.Words, d.Shape.N, out, opts, ec)
	for b := 0; b < B; b++ {
		copy(outs[b], out[b*d.Shape.K:(b+1)*d.Shape.K])
	}
}

// ForwardPackedBatch is ForwardPacked over B images: one bgemm with
// M = B, then the fused sign/threshold activation packed per image.
func (d *Dense) ForwardPackedBatch(ins, outs [][]uint64, s *DenseBatchScratch, ec *exec.Ctx) {
	B := len(ins)
	if B == 0 || len(outs) != B {
		panic(fmt.Sprintf("core: dense batch %d inputs, %d outputs", B, len(outs)))
	}
	s.Ensure(d, B)
	if B == 1 {
		d.ForwardPacked(ins[0], outs[0], s.rows[0], ec)
		return
	}
	tmp := s.rows[:B]
	d.ForwardBatch(ins, tmp, s, ec)
	for b := 0; b < B; b++ {
		if len(outs[b]) < bitpack.WordsFor(d.Shape.K) {
			panic("core: dense packed output too short")
		}
		d.packSigns(tmp[b], outs[b])
	}
}

// ForwardFloatBatch is ForwardFloat over B images: one bgemm with M = B,
// then the float conversion and optional affine per image.
func (d *Dense) ForwardFloatBatch(ins [][]uint64, outs [][]float32, s *DenseBatchScratch, ec *exec.Ctx) {
	B := len(ins)
	if B == 0 || len(outs) != B {
		panic(fmt.Sprintf("core: dense batch %d inputs, %d outputs", B, len(outs)))
	}
	s.Ensure(d, B)
	if B == 1 {
		d.ForwardFloat(ins[0], outs[0], s.rows[0], ec)
		return
	}
	tmp := s.rows[:B]
	d.ForwardBatch(ins, tmp, s, ec)
	for b := 0; b < B; b++ {
		if d.affine != nil {
			d.affine.Apply(tmp[b], outs[b])
			continue
		}
		for i, v := range tmp[b] {
			outs[b][i] = float32(v)
		}
	}
}

// packSigns writes the sign/threshold bits of the K pre-activations into
// out via the fused epilogue, clearing trailing lanes — the shared tail
// of ForwardPacked and ForwardPackedBatch.
func (d *Dense) packSigns(tmp []int32, out []uint64) {
	d.epi.Pack(tmp, out)
}
