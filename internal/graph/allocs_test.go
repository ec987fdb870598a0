package graph

import (
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// nameSink keeps the name() results observable, so the calls that the
// allocation check times are not optimized away.
var nameSink string

// TestInferAllocations pins the forward pass's heap traffic under
// exec.Serial(), the paper's "pre-allocate everything" made checkable:
// Infer allocates exactly the logits it returns, and InferBatch(8) at
// most the outer slice, the eight logits and one more. The nets cover
// each accumulate step a conv runs — TinyVGG and the VGG-shaped net
// sweep (their C = 3 stems sit below the compression floor), the
// DupNet-shaped net sweeps the distinct filters of folded plans — and
// all three fuse conv→pool pairs, whose joined layer names are built
// once by the fusion pass, not per pass.
func TestInferAllocations(t *testing.T) {
	vggish, err := NewBuilder("VGGish", 32, 32, 3, feat()).
		Conv3x3("conv1.1", 64).Conv3x3("conv1.2", 64).Pool("pool1", 2, 2, 2).
		Conv3x3("conv2.1", 128).Conv3x3("conv2.2", 128).Pool("pool2", 2, 2, 2).
		Conv3x3("conv3.1", 256).Conv3x3("conv3.2", 256).Pool("pool3", 2, 2, 2).
		Flatten().Dense("fc6", 256).Dense("fc7", 256).Dense("fc8", 10).
		Build(RandomWeights{Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	dupnet, err := NewBuilder("DupNet", 16, 16, 64, feat()).
		Conv3x3("c1", 256).Conv3x3("c2", 256).Pool("p1", 2, 2, 2).
		Conv3x3("c3", 512).Conv3x3("c4", 512).Pool("p2", 2, 2, 2).
		Flatten().Dense("fc", 10).
		Build(benchDupWeights(91))
	if err != nil {
		t.Fatal(err)
	}
	if got := dupnet.CompressedLayers(); got != 4 {
		t.Fatalf("DupNet-shaped net compresses %d layers, want 4", got)
	}
	nets := []*Network{mustTinyVGG(t, 92), dupnet, vggish}
	for _, net := range nets {
		if net.Fusion().Pairs == 0 {
			t.Fatalf("%s: no fused conv→pool pair", net.Name)
		}
		for _, l := range net.layers {
			if n := testing.AllocsPerRun(10, func() { nameSink = l.name() }); n != 0 {
				t.Errorf("%s: layer %s name() allocates %v times", net.Name, l.name(), n)
			}
		}
		net.SetExec(exec.Serial())
		r := workload.NewRNG(93)
		xs := make([]*tensor.Tensor, 8)
		for i := range xs {
			xs[i] = workload.RandTensor(r, net.InH, net.InW, net.InC)
		}
		if n := testing.AllocsPerRun(5, func() { net.Infer(xs[0]) }); n != 1 {
			t.Errorf("%s: Infer allocates %v times per call, want 1 (the returned logits)", net.Name, n)
		}
		net.EnsureBatch(len(xs))
		if n := testing.AllocsPerRun(3, func() {
			if _, err := net.InferBatch(xs); err != nil {
				t.Fatal(err)
			}
		}); n > 10 {
			t.Errorf("%s: InferBatch(8) allocates %v times per call, want ≤ 10", net.Name, n)
		}
	}
}
