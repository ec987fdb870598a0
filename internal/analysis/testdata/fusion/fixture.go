// Package fusion is a seeded-violation fixture loaded under the fake
// import path "fixture/internal/core". It models the fused
// conv → threshold → pack → pool data-flow: one packed conv body whose
// pool argument widens each output window. The body is rooted with
// //bitflow:hot, so hotalloc governs it: activations between layers exist
// only as packed bits, and a float tensor materialized anywhere on the
// pooled or unpooled path is a finding.
package fusion

import "bitflow/internal/tensor"

type pool struct{ k int }

type conv struct{ k int }

// ForwardPacked is the one conv body; a nil pool means every output pixel
// is its own 1×1 window.
//
//bitflow:hot
func (c *conv) ForwardPacked(in []uint64, pl *pool, out []uint64) {
	if len(out) == 0 {
		// Failure path: constructions feeding a panic argument are never
		// executed on a successful pass and must not be flagged.
		panic(tensor.New(1, 1, c.k))
	}
	win := 1
	if pl != nil {
		win = pl.k
	}
	plane := tensor.New(2, 2, c.k*win) // want:hotalloc
	_ = plane
	c.windowRange(in, win, out)
	scratch := EnsureScratch(c.k) // boundary call: Ensure* allocation is sanctioned
	_ = scratch
	dbg := tensor.New(1, 1, c.k) //bitflow:alloc-ok fixture: deliberate, justified debug tap
	_ = dbg
	//bitflow:alloc-ok
	bare := tensor.New(1, 1, c.k) // want:hotalloc
	_ = bare
}

// windowRange is reached transitively from ForwardPacked: a float tensor
// between the threshold and the pool OR is on the fused path too.
func (c *conv) windowRange(in []uint64, win int, out []uint64) {
	t := tensor.Tensor{H: win, W: win, C: c.k}   // want:hotalloc
	pt := &tensor.Tensor{H: win, W: win, C: c.k} // want:hotalloc
	_, _ = t, pt
	for i := range out {
		out[i] |= in[i%len(in)]
	}
}

// EnsureScratch is a boundary: its allocation is the sanctioned kind.
func EnsureScratch(n int) []int32 {
	return make([]int32, n)
}

// reference is reachable from no hot root: a float tensor is the right
// output for a build-time or test-only reference path.
func reference(k int) *tensor.Tensor {
	return tensor.New(4, 4, k)
}
