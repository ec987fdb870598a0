package graph

import (
	"context"
	"testing"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

func TestInferContextBackgroundMatchesInfer(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(41), 32, 32, 3)
	want := net.Infer(x)
	got, err := net.InferContext(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("logit %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestInferContextCancelledBeforeStart(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.InferContext(ctx, workload.RandTensor(workload.NewRNG(43), 32, 32, 3)); err != context.Canceled {
		t.Fatalf("pre-cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestInferContextCancelMidPass cancels the request from the per-layer
// observer hook partway through the network and checks the three promises
// InferContext makes: the pass stops at the next layer boundary (no
// further layers run), the caller gets ctx's error, and the buffers are
// immediately reusable — the next uncancelled Infer on the same network
// is bit-identical to an uninterrupted pass.
func TestInferContextCancelMidPass(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(45), 32, 32, 3)
	want := net.Infer(x) // uninterrupted reference, same buffers
	total := len(net.Layers())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ranAfterCancel, ranLayers int
	cancelled := false
	obs := exec.Observer(func(layer, kind string, d time.Duration) {
		if kind == "pack" {
			return // input staging, not a layer
		}
		if cancelled {
			ranAfterCancel++
		}
		ranLayers++
		if ranLayers == 2 {
			cancelled = true
			cancel()
		}
	})
	net.SetExec(exec.Serial().WithObserver(obs))
	if _, err := net.InferContext(ctx, x); err != context.Canceled {
		t.Fatalf("mid-pass cancel: got %v, want context.Canceled", err)
	}
	if ranAfterCancel != 0 {
		t.Fatalf("%d layers ran after cancellation; want 0 (stop at next boundary)", ranAfterCancel)
	}
	if ranLayers >= total {
		t.Fatalf("all %d layers ran despite cancellation after layer 2", total)
	}

	// Buffers must be reusable: a fresh pass on the half-dirty network
	// agrees bit for bit with the uninterrupted reference.
	net.SetExec(nil)
	got := net.Infer(x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("post-cancel logit %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestInferContextDeadline(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := net.InferContext(ctx, workload.RandTensor(workload.NewRNG(47), 32, 32, 3)); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}

// TestSetExecPooled pins the tentpole invariant end to end: a network
// dispatching on an attached pooled execution context produces logits
// bit-identical to the serial path, and clones inherit the attachment so
// every replica of a server shares one pool.
func TestSetExecPooled(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(49), 32, 32, 3)
	want := net.Infer(x)

	p := exec.NewPool(3)
	defer p.Close()
	ec := exec.Pooled(p, 4)
	net.SetExec(ec)
	if net.Exec() != ec {
		t.Fatal("Exec() did not return the attached context")
	}
	got := net.Infer(x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pooled logit %d: %v vs %v", i, got[i], want[i])
		}
	}

	cl := net.Clone()
	if cl.Exec() != ec {
		t.Fatal("clone did not inherit the attached execution context")
	}
	cg := cl.Infer(x)
	for i := range want {
		if want[i] != cg[i] {
			t.Fatalf("clone pooled logit %d: %v vs %v", i, cg[i], want[i])
		}
	}
}

// TestInferBatchCancelled: the batched path honours an attached context
// too — a cancelled base context stops every lane.
func TestInferBatchCancelled(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net.SetExec(exec.Serial().WithContext(ctx))
	r := workload.NewRNG(51)
	xs := []*tensor.Tensor{
		workload.RandTensor(r, 32, 32, 3),
		workload.RandTensor(r, 32, 32, 3),
	}
	if _, err := net.InferBatch(xs); err != context.Canceled {
		t.Fatalf("cancelled batch: got %v, want context.Canceled", err)
	}
	// Detached again, the same lanes serve the same batch normally.
	net.SetExec(nil)
	if _, err := net.InferBatch(xs); err != nil {
		t.Fatal(err)
	}
}
