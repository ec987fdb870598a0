package graph

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

func TestCloneMatchesOriginal(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	net.SetExec(exec.Threads(2))
	clone := net.Clone()
	x := workload.RandTensor(workload.NewRNG(51), 32, 32, 3)
	want := net.Infer(x)
	got := clone.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: clone %v original %v", i, got[i], want[i])
		}
	}
	// Weights are shared; the model-size accounting must agree.
	if net.ModelSize() != clone.ModelSize() {
		t.Error("clone reports different model size")
	}
	if clone.Exec() != net.Exec() {
		t.Error("clone did not inherit the execution context")
	}
}

func TestClonesRunConcurrently(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	inputs := make([]*tensor.Tensor, workers)
	expected := make([][]float32, workers)
	for i := range inputs {
		inputs[i] = workload.RandTensor(workload.NewRNG(uint64(53+i)), 32, 32, 3)
		expected[i] = net.Infer(inputs[i])
	}
	var wg sync.WaitGroup
	results := make([][]float32, workers)
	for i := 0; i < workers; i++ {
		clone := net.Clone()
		wg.Add(1)
		go func(i int, c *Network) {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				results[i] = c.Infer(inputs[i])
			}
		}(i, clone)
	}
	wg.Wait()
	for i := range results {
		for j := range results[i] {
			if results[i][j] != expected[i][j] {
				t.Fatalf("concurrent clone %d logit %d: %v want %v", i, j, results[i][j], expected[i][j])
			}
		}
	}
}

func TestCloneOfLoadedNetwork(t *testing.T) {
	// Clone must work on networks that came from Load (arch recorded by
	// compile, ops from packed weights).
	net, err := TinyVGG(feat(), RandomWeights{Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	clone := net.Clone().Clone() // clone of a clone, too
	x := workload.RandTensor(workload.NewRNG(55), 32, 32, 3)
	want := net.Infer(x)
	got := clone.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d differs", i)
		}
	}
}

func TestWidthInvariance(t *testing.T) {
	// The same architecture and weights under every kernel-tier cap must
	// produce bit-identical logits: vector width is a performance knob,
	// never a semantics knob.
	x := workload.RandTensor(workload.NewRNG(56), 32, 32, 3)
	var want []float32
	for _, cap := range []kernels.Width{kernels.W512, kernels.W256, kernels.W64} {
		net, err := TinyVGG(feat().WithMaxWidth(cap), RandomWeights{Seed: 57})
		if err != nil {
			t.Fatal(err)
		}
		got := net.Infer(x)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width cap %v: logit %d = %v want %v", cap, i, got[i], want[i])
			}
		}
	}
}

// chainPin is a network's chain accounting: ActivationBytes, Fusion, the
// layer count and an FNV-1a digest of fmt.Sprint(Layers(),
// Compression()).
type chainPin struct {
	act    int64
	fusion FusionStats
	layers int
	digest uint64
}

func pinOf(n *Network) chainPin {
	h := fnv.New64a()
	fmt.Fprint(h, n.Layers(), n.Compression())
	return chainPin{n.ActivationBytes(), n.Fusion(), len(n.Layers()), h.Sum64()}
}

// TestChainAccountingPinned pins the chain accounting, recorded when the
// clones still rebuilt every network from its specs, for a build, a load
// and their clones of the three benchmark networks: the fused plan, the
// unfused and the uncompressed clones, and clones of those, which keep
// their plan, each read exactly what they read then.
func TestChainAccountingPinned(t *testing.T) {
	cases := []struct {
		name                             string
		build                            func() (*Network, error)
		fused, unfused, uncompress, both chainPin
	}{
		{"TinyVGG", func() (*Network, error) { return TinyVGG(feat(), RandomWeights{Seed: 7}) },
			chainPin{22144, FusionStats{2, 1536}, 5, 0xf76fc794a3aafe87},
			chainPin{34432, FusionStats{}, 7, 0xf4909a2481f98e9f},
			chainPin{22144, FusionStats{2, 1536}, 5, 0xf76fc794a3aafe87},
			chainPin{34432, FusionStats{}, 7, 0xf4909a2481f98e9f}},
		{"DupNet", func() (*Network, error) {
			return NewBuilder("DupNet", 32, 32, 64, feat()).
				Conv3x3("c1", 256).Conv3x3("c2", 256).Pool("p1", 2, 2, 2).
				Conv3x3("c3", 512).Conv3x3("c4", 512).Pool("p2", 2, 2, 2).
				Flatten().Dense("fc", 10).
				Build(benchDupWeights(7))
		},
			chainPin{81440, FusionStats{2, 6144}, 5, 0x2dfa106aa7788642},
			chainPin{130592, FusionStats{}, 7, 0xc596786e7182a742},
			chainPin{81440, FusionStats{2, 6144}, 5, 0x1c6fefb64737f3d8},
			chainPin{130592, FusionStats{}, 7, 0x6187fa6bc4dea932}},
		{"VGG16", func() (*Network, error) { return VGG16(feat(), RandomWeights{Seed: 7}) },
			chainPin{1595552, FusionStats{5, 95648}, 16, 0x10934620f26230c4},
			chainPin{2360736, FusionStats{}, 21, 0x198ff79366275815},
			chainPin{1595552, FusionStats{5, 95648}, 16, 0x10934620f26230c4},
			chainPin{2360736, FusionStats{}, 21, 0x198ff79366275815}},
	}
	for _, tc := range cases {
		if tc.name == "VGG16" && testing.Short() {
			continue
		}
		built, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := built.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, feat())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			net  *Network
			want chainPin
		}{
			{"build", built, tc.fused},
			{"load", loaded, tc.fused},
			{"clone", built.Clone(), tc.fused},
			{"load clone", loaded.Clone(), tc.fused},
			{"unfused", built.CloneUnfused(), tc.unfused},
			{"load unfused", loaded.CloneUnfused(), tc.unfused},
			{"uncompressed", built.CloneUncompressed(), tc.uncompress},
			{"uncompressed clone", built.CloneUncompressed().Clone(), tc.uncompress},
			{"unfused uncompressed", built.CloneUnfused().CloneUncompressed(), tc.both},
			{"uncompressed unfused", loaded.CloneUncompressed().CloneUnfused(), tc.both},
		} {
			if got := pinOf(c.net); got != c.want {
				t.Errorf("%s %s: %+v, want %+v", tc.name, c.name, got, c.want)
			}
		}
	}
}
