package graph

import (
	"strings"
	"testing"

	"bitflow/internal/baseline"
	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

func feat() sched.Features {
	return sched.Features{Arch: "test", MaxWidth: kernels.W512, HWPopcount: true}
}

func TestTinyVGGBuildsAndRuns(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if net.Classes != 10 {
		t.Fatalf("classes = %d", net.Classes)
	}
	x := workload.RandTensor(workload.NewRNG(2), 32, 32, 3)
	out := net.Infer(x)
	if len(out) != 10 {
		t.Fatalf("output len %d", len(out))
	}
	var nonzero bool
	for _, v := range out {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("all-zero logits are implausible")
	}
}

func TestInferDeterministicAcrossRuns(t *testing.T) {
	// Pre-allocated buffers are reused; a second pass with the same
	// input must be bit-identical (DESIGN.md invariant).
	net, err := TinyVGG(feat(), RandomWeights{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(4), 32, 32, 3)
	first := net.Infer(x)
	// Run a different input in between to dirty the buffers.
	net.Infer(workload.RandTensor(workload.NewRNG(5), 32, 32, 3))
	second := net.Infer(x)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("logit %d: %v then %v", i, first[i], second[i])
		}
	}
}

func TestInferThreadsAgree(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(7), 32, 32, 3)
	want := net.Infer(x)
	net.SetExec(exec.Threads(4))
	got := net.Infer(x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("threads=4 logit %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestNetworkMatchesManualPipeline replays a small network by hand with
// the float reference operators and checks exact agreement — the
// end-to-end integration proof across bitpack/core/graph.
func TestNetworkMatchesManualPipeline(t *testing.T) {
	ws := RandomWeights{Seed: 8}
	net, err := NewBuilder("manual", 8, 8, 64, feat()).
		Conv3x3("c1", 64).
		Pool("p1", 2, 2, 2).
		Dense("d1", 32).
		Dense("d2", 5).
		Build(ws)
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(9), 8, 8, 64)
	got := net.Infer(x)

	// Manual replay in float space, binarizing between layers exactly
	// as the fused operators do.
	f1, _ := ws.ConvFilter("c1", 64, 3, 3, 64)
	a := baseline.ConvDirect(x.Sign(), f1.Sign(), 1, 1, -1, 1).Sign()
	a = baseline.MaxPoolFloat(a, 2, 2, 2, 1)
	flatVals := a.Data // NHWC flatten, already sign-valued
	w1, _ := ws.DenseMatrix("d1", len(flatVals), 32)
	h1 := make([]float32, 32)
	baseline.DenseFloat(flatVals, w1.Sign(), h1, 1)
	h1s := make([]float32, 32)
	for i, v := range h1 {
		if v >= 0 {
			h1s[i] = 1
		} else {
			h1s[i] = -1
		}
	}
	w2, _ := ws.DenseMatrix("d2", 32, 5)
	want := make([]float32, 5)
	baseline.DenseFloat(h1s, w2.Sign(), want, 1)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: got %v want %v (full: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	ws := RandomWeights{Seed: 10}
	cases := map[string]*Builder{
		"empty":              NewBuilder("e", 8, 8, 64, feat()),
		"conv after flatten": NewBuilder("e", 8, 8, 64, feat()).Flatten().Conv3x3("c", 8).Dense("d", 2),
		"pool after flatten": NewBuilder("e", 8, 8, 64, feat()).Flatten().Pool("p", 2, 2, 2).Dense("d", 2),
		"ends in conv":       NewBuilder("e", 8, 8, 64, feat()).Conv3x3("c", 8),
		"ends in pool":       NewBuilder("e", 8, 8, 64, feat()).Pool("p", 2, 2, 2),
		"double flatten":     NewBuilder("e", 8, 8, 64, feat()).Flatten().Flatten().Dense("d", 2),
		"bad conv geometry":  NewBuilder("e", 2, 2, 64, feat()).Conv("c", 4, 5, 5, 1, 0).Dense("d", 2),
		"bad pool geometry":  NewBuilder("e", 2, 2, 64, feat()).Pool("p", 4, 4, 4).Dense("d", 2),
		"flatten channels":   NewBuilder("e", 4, 4, 48, feat()).Dense("d", 2),
	}
	for name, b := range cases {
		if _, err := b.Build(ws); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSinglePixelFlattenAllowsAnyChannels(t *testing.T) {
	// An MLP over 1×1×N input flattens trivially even when N is not a
	// multiple of 64.
	net, err := NewBuilder("mlp", 1, 1, 100, feat()).
		Dense("d1", 40).
		Dense("d2", 3).
		Build(RandomWeights{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	out := net.Infer(workload.RandTensor(workload.NewRNG(12), 1, 1, 100))
	if len(out) != 3 {
		t.Fatalf("output len %d", len(out))
	}
}

func TestLayersReport(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// The fusion planner collapses both conv→pool pairs, so the 7
	// declared layers compile to 5 nodes.
	infos := net.Layers()
	if len(infos) != 5 {
		t.Fatalf("layer count %d want 5", len(infos))
	}
	if infos[0].Name != "conv1.1" || infos[0].Kind != "conv" || infos[0].OutDims != "32x32x64" {
		t.Errorf("layer 0 = %+v", infos[0])
	}
	if infos[1].Name != "conv1.2+pool1" || infos[1].Kind != "conv+pool" || infos[1].OutDims != "16x16x64" {
		t.Errorf("layer 1 = %+v", infos[1])
	}
	if infos[2].Name != "conv2.1+pool2" || infos[2].Kind != "conv+pool" || infos[2].OutDims != "8x8x128" {
		t.Errorf("layer 2 = %+v", infos[2])
	}
	if infos[4].Name != "fc2" || infos[4].OutDims != "10" {
		t.Errorf("layer 4 = %+v", infos[4])
	}
	if fs := net.Fusion(); fs.Pairs != 2 || fs.EliminatedWords <= 0 {
		t.Errorf("fusion stats = %+v", fs)
	}
}

func TestInferTimed(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(15), 32, 32, 3)
	out, timings := net.InferTimed(x)
	if len(out) != 10 {
		t.Fatalf("output len %d", len(out))
	}
	if len(timings) != 6 { // input + 5 fused nodes
		t.Fatalf("timings len %d", len(timings))
	}
	if timings[0].Name != "input" {
		t.Errorf("first timing %q", timings[0].Name)
	}
	// Timed and untimed passes agree.
	want := net.Infer(x)
	for i := range want {
		if out[i] != want[i] {
			t.Fatal("InferTimed result differs from Infer")
		}
	}
}

func TestModelSizeCompression(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	ms := net.ModelSize()
	if ms.Weights == 0 || ms.BinarizedBytes == 0 {
		t.Fatal("empty model size")
	}
	// Paper Table V: 32× compression from bit-packing. Channel padding
	// on the first layer costs a little, so accept ≥ 24×.
	if c := ms.Compression(); c < 24 || c > 33 {
		t.Errorf("compression %.1f outside [24, 33]", c)
	}
	if net.ActivationBytes() <= 0 {
		t.Error("no pre-allocated activations reported")
	}
}

func TestMarginsStayZeroAfterInference(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	net.Infer(workload.RandTensor(workload.NewRNG(18), 32, 32, 3))
	net.Infer(workload.RandTensor(workload.NewRNG(19), 32, 32, 3))
	for _, l := range net.layers {
		var bufs []*bitpack.Packed
		switch v := l.(type) {
		case *convLayer:
			bufs = []*bitpack.Packed{v.in, v.out}
		case *poolLayer:
			bufs = []*bitpack.Packed{v.in, v.out}
		}
		for _, b := range bufs {
			if b == nil {
				continue
			}
			if !b.MarginsAllZero() {
				t.Errorf("layer %s: margin words dirtied", l.name())
			}
			if !b.TailClean() {
				t.Errorf("layer %s: tail lanes dirtied", l.name())
			}
		}
	}
}

func TestRandomWeightsDeterministic(t *testing.T) {
	a, _ := RandomWeights{Seed: 20}.ConvFilter("x", 2, 3, 3, 4)
	b, _ := RandomWeights{Seed: 20}.ConvFilter("x", 2, 3, 3, 4)
	c, _ := RandomWeights{Seed: 20}.ConvFilter("y", 2, 3, 3, 4)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed+name differ")
		}
	}
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different names produced identical weights")
	}
}

func TestInferShapePanics(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong input shape did not panic")
		}
	}()
	net.Infer(tensor.New(8, 8, 3))
}

func TestVGG16Architecture(t *testing.T) {
	if testing.Short() {
		t.Skip("VGG-16 build is heavy for -short")
	}
	net, err := VGG16(feat(), RandomWeights{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	// Each of the five blocks ends conv→pool, and all five pairs fuse:
	// 13 conv + 5 pool compiles to 8 conv + 5 conv+pool nodes.
	infos := net.Layers()
	var convs, pools, fused, fcs int
	for _, li := range infos {
		switch li.Kind {
		case "conv":
			convs++
		case "pool":
			pools++
		case "conv+pool":
			fused++
		case "fc":
			fcs++
		}
	}
	if convs != 8 || pools != 0 || fused != 5 || fcs != 3 {
		t.Errorf("VGG-16 layout %d conv / %d pool / %d conv+pool / %d fc", convs, pools, fused, fcs)
	}
	// Table V: binarized VGG is ~16.5 MB (paper reports full precision
	// >500 MB and 32× compression).
	ms := net.ModelSize()
	mb := float64(ms.BinarizedBytes) / (1 << 20)
	if mb < 14 || mb > 20 {
		t.Errorf("binarized VGG-16 = %.1f MB, expected ≈16.5 MB", mb)
	}
	fullMB := float64(ms.FullPrecisionBytes) / (1 << 20)
	if fullMB < 500 || fullMB > 560 {
		t.Errorf("full-precision VGG-16 = %.1f MB, expected ≈528 MB", fullMB)
	}
	// The feature extractor ends at 7×7×512 before fc6 (pool5 now lives
	// inside the fused tail node of block 5).
	found := false
	for _, li := range infos {
		if li.Name == "conv5.3+pool5" && li.OutDims == "7x7x512" {
			found = true
		}
	}
	if !found {
		t.Error("conv5.3+pool5 output is not 7x7x512")
	}
	if !strings.Contains(infos[len(infos)-1].OutDims, "1000") {
		t.Errorf("classifier dims %q", infos[len(infos)-1].OutDims)
	}
}

func TestVGG19HasThreeMoreConvs(t *testing.T) {
	if testing.Short() {
		t.Skip("VGG-19 build is heavy for -short")
	}
	n16, err := VGG16(feat(), RandomWeights{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	n19, err := VGG19(feat(), RandomWeights{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	count := func(n *Network, kind string) int {
		c := 0
		for _, li := range n.Layers() {
			if li.Kind == kind {
				c++
			}
		}
		return c
	}
	if count(n19, "conv")-count(n16, "conv") != 3 {
		t.Errorf("VGG-19 has %d convs, VGG-16 %d; difference must be 3",
			count(n19, "conv"), count(n16, "conv"))
	}
}
