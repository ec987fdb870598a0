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
// under exec.Serial() on every kernel tier: the gather window, the
// accumulators and a float stem's dot products live in the chunk's frame
// (the assembly stubs are //go:noescape and reached by static calls),
// and a serial forward runs its one chunk without building a dispatch
// closure, so no conv, float conv or dense forward allocates. The conv
// is pinned on both accumulate steps over the same scratch — sweeping
// its bank and sweeping the distinct filters of a folded one — plain
// and pooled; the dense forward once per finished output form, logits
// and bits.
func TestPlainForwardAllocations(t *testing.T) {
	r := workload.NewRNG(1)
	ec := exec.Serial()
	for _, w := range []kernels.Width{kernels.W64, kernels.W256, kernels.W512} {
		feat := sched.Detect().WithMaxWidth(w)
		shape, err := sched.InferConv(8, 8, 64, 72, 3, 3, 1, 1)
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
		full := bitpack.NewPacked(8, 8, 72, 2, 1, 1)
		pooled := bitpack.NewPacked(4, 4, 72, 2, 0, 0)
		for _, path := range []string{"sweep", "folded"} {
			f := workload.RandFilter(r, 72, 3, 3, 64)
			if path == "folded" {
				dupFilter(f, 4)
			}
			cv, err := NewConv(shape, feat.MaxWidth, f)
			if err != nil {
				t.Fatal(err)
			}
			if cv.Folded() != (path == "folded") {
				t.Fatalf("%v %s: folded=%v", w, path, cv.Folded())
			}
			in := cv.NewInput()
			if n := testing.AllocsPerRun(20, func() { cv.ForwardPacked(in, nil, full, ec) }); n != 0 {
				t.Errorf("%v %s: Conv.ForwardPacked allocates %v times per call, want 0", w, path, n)
			}
			if n := testing.AllocsPerRun(20, func() { cv.ForwardPacked(in, pl, pooled, ec) }); n != 0 {
				t.Errorf("%v %s: pooled Conv.ForwardPacked allocates %v times per call, want 0", w, path, n)
			}
		}

		stemShape, err := sched.InferConv(8, 8, 3, 64, 3, 3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		stem, err := NewFloatConv(stemShape, workload.RandFilter(r, 64, 3, 3, 3))
		if err != nil {
			t.Fatal(err)
		}
		img := workload.RandTensor(r, 8, 8, 3)
		stemOut := bitpack.NewPacked(8, 8, 64, 1, 1, 1)
		if n := testing.AllocsPerRun(20, func() { stem.Forward(img, stemOut, ec) }); n != 0 {
			t.Errorf("%v: FloatConv.Forward allocates %v times per call, want 0", w, n)
		}

		fs, err := sched.InferFC(500, 70)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDense(fs, feat.MaxWidth, workload.RandMatrix(r, 500, 70))
		if err != nil {
			t.Fatal(err)
		}
		din := d.NewInput()
		for form, out := range map[string]DenseOut{
			"logits": {Acc: d.NewScratch(), Logits: make([]float32, 70)},
			"bits":   {Acc: d.NewScratch(), Bits: make([]uint64, 2)},
		} {
			if n := testing.AllocsPerRun(20, func() { d.Forward(din, out, ec) }); n != 0 {
				t.Errorf("%v %s: Dense.Forward allocates %v times per call, want 0", w, form, n)
			}
		}
	}
}
