package core

import (
	"testing"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// TestPlainForwardAllocations pins the drivers' per-call heap traffic
// under exec.Serial() on every kernel tier: the gather window and the
// accumulators live in the worker chunk's frame (the assembly stubs are
// //go:noescape and reached by static calls), so a conv forward allocates
// only the closure it hands to ParallelFor — the one sanctioned
// per-dispatch allocation — and a dense forward, which runs its serial
// path without a closure, allocates nothing. Each operator is pinned
// twice: sweeping its bank, and walking a forced compression plan over
// the same scratch.
func TestPlainForwardAllocations(t *testing.T) {
	r := workload.NewRNG(1)
	ec := exec.Serial()
	for _, w := range []kernels.Width{kernels.W64, kernels.W256, kernels.W512} {
		feat := sched.Detect().WithMaxWidth(w)
		shape, err := sched.InferConv(8, 8, 64, 72, 3, 3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := NewConv(shape, sched.Select(64, feat), workload.RandFilter(r, 72, 3, 3, 64))
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sched.InferPool(8, 8, 72, 2, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPool(ps, 2)
		if err != nil {
			t.Fatal(err)
		}
		in := cv.NewInput()
		full := bitpack.NewPacked(8, 8, 72, 2, 1, 1)
		pooled := bitpack.NewPacked(4, 4, 72, 2, 0, 0)
		for _, planned := range []bool{false, true} {
			if planned {
				forcePlan(t, cv)
			}
			if n := testing.AllocsPerRun(20, func() { cv.ForwardPacked(in, nil, full, ec) }); n > 1 {
				t.Errorf("%v planned=%v: Conv.ForwardPacked allocates %v times per call, want at most the dispatch closure", w, planned, n)
			}
			if n := testing.AllocsPerRun(20, func() { cv.ForwardPacked(in, pl, pooled, ec) }); n > 1 {
				t.Errorf("%v planned=%v: pooled Conv.ForwardPacked allocates %v times per call, want at most the dispatch closure", w, planned, n)
			}
		}

		fs, err := sched.InferFC(500, 70)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDense(fs, sched.Select(500, feat), workload.RandMatrix(r, 500, 70))
		if err != nil {
			t.Fatal(err)
		}
		din, dout, tmp := d.NewInput(), make([]uint64, 2), d.NewScratch()
		for _, planned := range []bool{false, true} {
			if planned {
				if err := d.SetCompression(kernels.BuildCompressPlan(d.weights.Words, 70, d.Plan.Words)); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(20, func() { d.ForwardPacked(din, dout, tmp, ec) }); n != 0 {
				t.Errorf("%v planned=%v: Dense.ForwardPacked allocates %v times per call, want 0", w, planned, n)
			}
		}
	}
}
