package graph

import (
	"fmt"
	"math"

	"bitflow/internal/tensor"
)

// This file implements batched inference for callers that hold several
// images at once (the tinyvgg_b8 benchmark workload, library users): a
// Network owns a pool of "lanes" — clones sharing its read-only packed
// weights, each with a private activation-buffer chain (margins included,
// so the zero-cost-padding layout carries over unchanged) — and InferBatch
// runs each image through one lane with the same forward body Infer uses
// (Network.pass), so batched logits are bit-identical to sequential ones
// by construction. What a batch buys is dispatch: when there are at least
// as many images as threads, whole lanes are handed to the workers, one
// dispatch per batch instead of one per layer per image. (The sweep
// kernels read a layer's whole filter bank once per window, so there is
// no weight traffic left for a batch dimension inside a layer to save.)

// BatchInputError reports which item of a batch failed validation. The
// forward pass does not run when InferBatch returns one, and InferBatch
// returns one for nothing else: a failure of the pass itself
// (cancellation, an injected fault) comes back bare, at any batch size.
// A caller that must fail one bad input alone checks each item with
// CheckInputFinite before assembling the batch.
type BatchInputError struct {
	Index int
	Err   error
}

func (e *BatchInputError) Error() string {
	return fmt.Sprintf("graph: batch item %d: %v", e.Index, e.Err)
}

//bitflow:keep external interface: errors.Is and errors.As unwrap through it
func (e *BatchInputError) Unwrap() error { return e.Err }

// CheckInputFinite is CheckInput plus a NaN/Inf scan — the validation the
// batched path applies per item, so one malformed tensor can be rejected
// on its own without touching the rest of a batch.
func (n *Network) CheckInputFinite(x *tensor.Tensor) error {
	if err := n.CheckInput(x); err != nil {
		return err
	}
	for i, v := range x.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("graph: input value %d is not finite", i)
		}
	}
	return nil
}

// EnsureBatch grows the network's lane pool to serve batches of up to b
// images without further allocation. Lane 0 is the network itself; extra
// lanes are clones sharing the packed weights. The pool only ever grows —
// a caller sizes it once to its largest batch at startup, the "grown
// once" buffer scheme of the batched path.
func (n *Network) EnsureBatch(b int) {
	for len(n.lanes) < b {
		lane := n
		if len(n.lanes) > 0 {
			lane = n.Clone()
		}
		n.lanes = append(n.lanes, lane)
		n.laneErrs = append(n.laneErrs, nil)
	}
}

// MaxBatch reports the current lane-pool capacity (0 before the first
// EnsureBatch/InferBatch call).
func (n *Network) MaxBatch() int { return len(n.lanes) }

// InferBatch runs one forward pass over all of xs and returns one logits
// slice per input, with InferBatch(xs)[i] bit-identical to Infer(xs[i]).
// Inputs are validated up front: a nil, misshapen, or malformed tensor
// fails the call with a *BatchInputError naming the offending index and
// no forward pass runs. A pass that fails — the attached context
// cancelled, a fault injected — returns that error bare (the lowest
// failing lane's; once the context is cancelled every remaining lane
// stops at its next layer boundary); the lanes stay reusable, every
// layer rewriting its output in full. Like Infer, InferBatch is not safe
// for concurrent use on the same Network.
//
// With at least as many images as the context's thread budget the lanes
// are split across the workers, each running its layers inline; smaller
// batches run lane after lane with every layer split across the full
// budget, as Infer does.
func (n *Network) InferBatch(xs []*tensor.Tensor) ([][]float32, error) {
	B := len(xs)
	if B == 0 {
		return nil, fmt.Errorf("graph: empty batch")
	}
	for i, x := range xs {
		if err := n.CheckInputFinite(x); err != nil {
			//bitflow:alloc-ok validation failure path; no forward pass runs
			return nil, &BatchInputError{Index: i, Err: err}
		}
	}
	n.EnsureBatch(B)
	lanes, errs := n.lanes[:B], n.laneErrs[:B]
	// across dispatches the lanes, within runs each lane's layers.
	across := n.ec
	within := across.Inline()
	if B < across.Budget() {
		across, within = within, across
	}
	//bitflow:alloc-ok one dispatch closure per batch; it replaces one per layer per image
	across.ParallelFor(B, func(start, end int) {
		for b := start; b < end; b++ {
			errs[b] = lanes[b].pass(within, xs[b])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	//bitflow:alloc-ok result slices escape to the caller; lane buffers are reused by the next batch
	outs := make([][]float32, B)
	for b, lane := range lanes {
		outs[b] = lane.logits()
	}
	return outs, nil
}
