package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/faultinject"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// batchExecs returns the execution contexts the batch tests run under:
// serial, and a 3-worker pool at budgets 2 and 3 — so batches fall on
// both sides of InferBatch's B ≥ Budget rule and B is not always a
// multiple of the budget.
func batchExecs(t *testing.T) []namedExec {
	t.Helper()
	p := exec.NewPool(3)
	t.Cleanup(p.Close)
	return []namedExec{
		{"serial", exec.Serial()},
		{"pooled2", exec.Pooled(p, 2)},
		{"pooled3", exec.Pooled(p, 3)},
	}
}

type namedExec struct {
	name string
	ec   *exec.Ctx
}

// checkBatch requires InferBatch(xs)[i] == ref.Infer(xs[i]) bit for bit.
func checkBatch(t *testing.T, label string, net, ref *Network, xs []*tensor.Tensor) {
	t.Helper()
	got, err := net.InferBatch(xs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(xs) {
		t.Fatalf("%s: got %d outputs for %d inputs", label, len(got), len(xs))
	}
	for b := range xs {
		if want := ref.Infer(xs[b]); !slices.Equal(got[b], want) {
			t.Fatalf("%s image %d: batched %v, sequential %v", label, b, got[b], want)
		}
	}
}

// TestInferBatchBitIdentical pins the batched path to the sequential one
// on TinyVGG: for every batch size 1..max, including ragged final batches
// smaller than the grown lane pool, under every context of batchExecs,
// InferBatch(xs)[i] must equal Infer(xs[i]) bit for bit.
func TestInferBatchBitIdentical(t *testing.T) {
	ref, err := TinyVGG(feat(), RandomWeights{Seed: 60}) // sequential reference
	if err != nil {
		t.Fatal(err)
	}
	const max = 8
	for _, ne := range batchExecs(t) {
		net, err := TinyVGG(feat(), RandomWeights{Seed: 60})
		if err != nil {
			t.Fatal(err)
		}
		net.SetExec(ne.ec)
		r := workload.NewRNG(99)
		for B := 1; B <= max; B++ {
			xs := make([]*tensor.Tensor, B)
			for b := range xs {
				xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
			}
			checkBatch(t, fmt.Sprintf("%s B=%d", ne.name, B), net, ref, xs)
		}
		if net.MaxBatch() != max {
			t.Fatalf("%s: lane pool %d after batches up to %d", ne.name, net.MaxBatch(), max)
		}
		// Ragged batch after the pool has grown to max: reuse a subset of lanes.
		xs := make([]*tensor.Tensor, 3)
		for b := range xs {
			xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
		}
		checkBatch(t, ne.name+" ragged", net, ref, xs)
		if net.MaxBatch() != max {
			t.Fatalf("%s: ragged batch shrank lane pool to %d", ne.name, net.MaxBatch())
		}
	}
}

// TestInferBatchMixedPrecision covers the float-stem variant (FloatConv
// first layer), whose batched path runs the stem per lane.
func TestInferBatchMixedPrecision(t *testing.T) {
	build := func() *Network {
		net, err := NewBuilder("mixed", 8, 8, 3, feat()).
			FloatConv("fc1", 64, 3, 3, 1, 1).
			Conv3x3("c2", 64).
			Pool("p1", 2, 2, 2).
			Dense("d1", 5).
			Build(RandomWeights{Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	net, ref := build(), build()
	r := workload.NewRNG(7)
	xs := make([]*tensor.Tensor, 4)
	for b := range xs {
		xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
	}
	got, err := net.InferBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for b := range xs {
		want := ref.Infer(xs[b])
		for i := range want {
			if got[b][i] != want[i] {
				t.Fatalf("image %d logit %d differs", b, i)
			}
		}
	}
}

// TestInferBatchInputErrors checks that a bad item fails with a typed
// error naming its index and that no forward pass runs.
func TestInferBatchInputErrors(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	r := workload.NewRNG(5)
	good := func() *tensor.Tensor { return workload.RandTensor(r, net.InH, net.InW, net.InC) }

	if _, err := net.InferBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}

	bad := good()
	bad.Data[10] = float32(math.NaN())
	_, err = net.InferBatch([]*tensor.Tensor{good(), bad, good()})
	var bie *BatchInputError
	if !errors.As(err, &bie) {
		t.Fatalf("want *BatchInputError, got %v", err)
	}
	if bie.Index != 1 {
		t.Fatalf("bad item at index 1 reported as %d", bie.Index)
	}

	wrong := workload.RandTensor(r, net.InH+1, net.InW, net.InC)
	_, err = net.InferBatch([]*tensor.Tensor{wrong, good()})
	if !errors.As(err, &bie) || bie.Index != 0 {
		t.Fatalf("wrong-shape item not reported at index 0: %v", err)
	}
}

// TestInferBatchErrorContract pins what InferBatch returns when it does
// not return logits, at B = 1 and B = 3 alike: a bad input is a
// *BatchInputError naming its index and no pass runs; a pass that fails —
// cancelled before it starts, or an injected graph.layer error — is that
// error, bare.
func TestInferBatchErrorContract(t *testing.T) {
	net, ref := mustTinyVGG(t, 63), mustTinyVGG(t, 63)
	r := workload.NewRNG(6)
	good := func() *tensor.Tensor { return workload.RandTensor(r, net.InH, net.InW, net.InC) }
	nan := good()
	nan.Data[7] = float32(math.NaN())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name   string
		bad    *tensor.Tensor   // replaces the batch's last item
		ec     *exec.Ctx        // attached for the call
		hook   faultinject.Hook // armed on graph.layer for the call
		bare   error            // want errors.Is(err, bare) and no *BatchInputError
		passes bool             // whether any layer may run
	}{
		{name: "bad shape", bad: workload.RandTensor(r, net.InH+1, net.InW, net.InC)},
		{name: "NaN input", bad: nan},
		{name: "pre-cancelled ctx", ec: exec.Serial().WithContext(cancelled), bare: context.Canceled},
		{name: "injected graph.layer fail", bare: faultinject.ErrInjected, passes: true,
			hook: func(ev faultinject.Event) error {
				if ev.Index == 2 {
					return faultinject.ErrInjected
				}
				return nil
			}},
	}
	for _, tc := range cases {
		for _, B := range []int{1, 3} {
			label := fmt.Sprintf("%s B=%d", tc.name, B)
			xs := make([]*tensor.Tensor, B)
			for b := range xs {
				xs[b] = good()
			}
			if tc.bad != nil {
				xs[B-1] = tc.bad
			}
			var fired atomic.Int64
			faultinject.GraphLayer.Set(func(ev faultinject.Event) error {
				fired.Add(1)
				if tc.hook != nil {
					return tc.hook(ev)
				}
				return nil
			})
			net.SetExec(tc.ec)
			outs, err := net.InferBatch(xs)
			faultinject.GraphLayer.Clear()
			net.SetExec(nil)
			if err == nil || outs != nil {
				t.Fatalf("%s: got %v, %v; want an error and no logits", label, outs, err)
			}
			var bie *BatchInputError
			switch {
			case tc.bare == nil:
				if !errors.As(err, &bie) || bie.Index != B-1 {
					t.Fatalf("%s: got %v, want *BatchInputError at index %d", label, err, B-1)
				}
			case errors.As(err, &bie) || !errors.Is(err, tc.bare):
				t.Fatalf("%s: got %v, want bare %v", label, err, tc.bare)
			}
			if ran := fired.Load() > 0; ran != tc.passes {
				t.Fatalf("%s: layers ran = %v, want %v", label, ran, tc.passes)
			}
			// The lanes the failed call touched serve the next batch exactly.
			for b := range xs {
				xs[b] = good()
			}
			checkBatch(t, label+" afterwards", net, ref, xs)
		}
	}
}

// TestInferBatchCancelMidBatch cancels the attached context from inside
// the pass — at the graph.layer fault point, a few layers into the batch
// — under every context of batchExecs: every lane stops at its next layer
// boundary, the caller gets the context's error, and the same lanes then
// serve a batch bit-exactly.
func TestInferBatchCancelMidBatch(t *testing.T) {
	ref := mustTinyVGG(t, 64)
	r := workload.NewRNG(8)
	for _, ne := range batchExecs(t) {
		net := mustTinyVGG(t, 64)
		xs := make([]*tensor.Tensor, 5)
		for b := range xs {
			xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
		}
		layers := int64(len(net.Layers()))
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Int64
		faultinject.GraphLayer.Set(func(faultinject.Event) error {
			if fired.Add(1) == layers+2 { // past the first lane's worth of boundaries, well short of the batch's
				cancel()
			}
			return nil
		})
		net.SetExec(ne.ec.WithContext(ctx))
		_, err := net.InferBatch(xs)
		faultinject.GraphLayer.Clear()
		cancel()
		if err != context.Canceled {
			t.Fatalf("%s: got %v, want context.Canceled", ne.name, err)
		}
		// Each lane in flight may finish the layer it was in and reach one
		// more boundary; none runs on.
		if n := fired.Load(); n >= int64(len(xs))*layers {
			t.Fatalf("%s: %d layer boundaries reached of %d; cancellation did not stop the batch", ne.name, n, int64(len(xs))*layers)
		}
		net.SetExec(ne.ec)
		checkBatch(t, ne.name+" after cancel", net, ref, xs)
	}
}

// TestInferBatchChunkPanic injects a panic into the second chunk of the
// lane dispatch (lanes 2–3 of a B = 4 batch at budget 2 — the chunk the
// caller does not start with, so a pool worker's): it is re-raised on the
// caller's goroutine, and the lanes then serve the same batch bit-exactly.
func TestInferBatchChunkPanic(t *testing.T) {
	net, ref := mustTinyVGG(t, 65), mustTinyVGG(t, 65)
	p := exec.NewPool(2)
	defer p.Close()
	net.SetExec(exec.Pooled(p, 2))
	r := workload.NewRNG(9)
	xs := make([]*tensor.Tensor, 4)
	for b := range xs {
		xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
	}
	net.EnsureBatch(len(xs))
	faultinject.ExecChunk.Set(func(ev faultinject.Event) error {
		if ev.Index == 2 { // only the lane dispatch has a chunk starting at 2: the lanes' own layers run inline, chunk 0
			panic("injected lane-chunk crash")
		}
		return nil
	})
	func() {
		defer faultinject.ExecChunk.Clear()
		defer func() {
			if v := recover(); v != "injected lane-chunk crash" {
				t.Fatalf("recovered %v, want the injected panic on the caller", v)
			}
		}()
		_, err := net.InferBatch(xs)
		t.Fatalf("InferBatch returned (%v) instead of re-raising the chunk panic", err)
	}()
	checkBatch(t, "after panic", net, ref, xs)
}
