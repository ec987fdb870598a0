package graph

import (
	"context"
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// nameSink keeps the name() results observable, so the calls that the
// allocation check times are not optimized away.
var nameSink string

// allocNets builds the nets TestInferAllocations pins at one kernel
// tier. Between them they run every forward step a network has: TinyVGG
// and the VGG-shaped net sweep their whole banks, the DupNet-shaped net
// sweeps the distinct filters of folded banks, and FloatStem runs a
// full-precision first layer. All four fuse conv→pool pairs, whose
// joined layer names are built once by the fusion pass, not per pass.
func allocNets(t *testing.T, w kernels.Width) []*Network {
	t.Helper()
	f := feat().WithMaxWidth(w)
	tiny, err := TinyVGG(f, RandomWeights{Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	vggish, err := NewBuilder("VGGish", 32, 32, 3, f).
		Conv3x3("conv1.1", 64).Conv3x3("conv1.2", 64).Pool("pool1", 2, 2, 2).
		Conv3x3("conv2.1", 128).Conv3x3("conv2.2", 128).Pool("pool2", 2, 2, 2).
		Conv3x3("conv3.1", 256).Conv3x3("conv3.2", 256).Pool("pool3", 2, 2, 2).
		Flatten().Dense("fc6", 256).Dense("fc7", 256).Dense("fc8", 10).
		Build(RandomWeights{Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	dupnet, err := NewBuilder("DupNet", 16, 16, 64, f).
		Conv3x3("c1", 256).Conv3x3("c2", 256).Pool("p1", 2, 2, 2).
		Conv3x3("c3", 512).Conv3x3("c4", 512).Pool("p2", 2, 2, 2).
		Flatten().Dense("fc", 10).
		Build(benchDupWeights(91))
	if err != nil {
		t.Fatal(err)
	}
	if got := dupnet.CompressedLayers(); got != 4 {
		t.Fatalf("DupNet-shaped net folds %d layers, want 4", got)
	}
	stem, err := NewBuilder("FloatStem", 16, 16, 3, f).
		FloatConv("conv1.1", 64, 3, 3, 1, 1).
		Conv3x3("conv1.2", 64).Pool("pool1", 2, 2, 2).
		Flatten().Dense("fc", 10).
		Build(RandomWeights{Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	return []*Network{tiny, dupnet, vggish, stem}
}

// TestInferAllocations pins the forward pass's heap traffic under
// exec.Serial() on every kernel tier, the paper's "pre-allocate
// everything" made checkable where the code runs (-tags purego runs
// the same pins on the pure-Go tier). Infer, InferChecked and
// InferContext allocate exactly the logits they return: the request's
// execution context is re-derived in place, in the network. And
// InferBatch(8) allocates at most the outer slice, the eight logits and
// one more.
func TestInferAllocations(t *testing.T) {
	ctx := context.Background()
	for _, w := range []kernels.Width{kernels.W64, kernels.W256, kernels.W512} {
		for _, net := range allocNets(t, w) {
			name := net.Name + "/" + w.String()
			if net.Fusion().Pairs == 0 {
				t.Fatalf("%s: no fused conv→pool pair", name)
			}
			for _, l := range net.layers {
				if n := testing.AllocsPerRun(10, func() { nameSink = l.name() }); n != 0 {
					t.Errorf("%s: layer %s name() allocates %v times", name, l.name(), n)
				}
			}
			net.SetExec(exec.Serial())
			r := workload.NewRNG(93)
			xs := make([]*tensor.Tensor, 8)
			for i := range xs {
				xs[i] = workload.RandTensor(r, net.InH, net.InW, net.InC)
			}
			if n := testing.AllocsPerRun(5, func() { net.Infer(xs[0]) }); n != 1 {
				t.Errorf("%s: Infer allocates %v times per call, want 1 (the returned logits)", name, n)
			}
			if n := testing.AllocsPerRun(5, func() {
				if _, err := net.InferChecked(xs[0]); err != nil {
					t.Fatal(err)
				}
			}); n != 1 {
				t.Errorf("%s: InferChecked allocates %v times per call, want 1 (the returned logits)", name, n)
			}
			if n := testing.AllocsPerRun(5, func() {
				if _, err := net.InferContext(ctx, xs[0]); err != nil {
					t.Fatal(err)
				}
			}); n != 1 {
				t.Errorf("%s: InferContext allocates %v times per call, want 1 (the returned logits)", name, n)
			}
			net.EnsureBatch(len(xs))
			if n := testing.AllocsPerRun(3, func() {
				if _, err := net.InferBatch(xs); err != nil {
					t.Fatal(err)
				}
			}); n > 10 {
				t.Errorf("%s: InferBatch(8) allocates %v times per call, want ≤ 10", name, n)
			}
		}
	}
}

// TestPooledInferAllocations pins what a pool dispatch costs. Under
// exec.Pooled(p, 2) every TinyVGG layer splits across the pool, and
// each dispatch allocates three objects: the job, its fin channel and
// the closure over the layer's operands. So Infer allocates 1 + 3·L,
// with L the dispatches per pass, which the pool's own counter reports
// and which equals the layer count.
func TestPooledInferAllocations(t *testing.T) {
	p := exec.NewPool(2)
	defer p.Close()
	for _, w := range []kernels.Width{kernels.W64, kernels.W256, kernels.W512} {
		net, err := TinyVGG(feat().WithMaxWidth(w), RandomWeights{Seed: 95})
		if err != nil {
			t.Fatal(err)
		}
		net.SetExec(exec.Pooled(p, 2))
		x := workload.RandTensor(workload.NewRNG(96), net.InH, net.InW, net.InC)
		net.Infer(x)
		before := p.Report().Dispatches
		net.Infer(x)
		layers := len(net.layers)
		if d := p.Report().Dispatches - before; d != int64(layers) {
			t.Fatalf("%v: one pooled Infer dispatched %d times, want one per layer (%d)", w, d, layers)
		}
		if n := testing.AllocsPerRun(5, func() { net.Infer(x) }); n != float64(1+3*layers) {
			t.Errorf("%v: pooled Infer allocates %v times per call, want 1 + 3·%d = %d", w, n, layers, 1+3*layers)
		}
	}
}
