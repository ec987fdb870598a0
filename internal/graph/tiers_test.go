package graph

import (
	"fmt"
	"slices"
	"testing"

	"bitflow/internal/bitpack"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// offGridNet is a net whose channel counts sit off the 64-bit word grid
// (and whose windows therefore end in vector tails on every tier): a C=3
// first layer, 72-, 100- and 130-filter convs, a fused and an unfused pool
// edge, and a dense head of odd widths.
func offGridNet(f sched.Features) (*Network, error) {
	return NewBuilder("offgrid", 20, 20, 3, f).
		Conv3x3("c1", 72).
		Conv3x3("c2", 100).
		Pool("p1", 2, 2, 2).
		Conv3x3("c3", 130).
		Conv3x3("c4", 192).
		Pool("p2", 2, 2, 2).
		Flatten().
		Dense("d1", 77).
		Dense("d2", 7).
		Build(RandomWeights{Seed: 91})
}

// TestKernelTiersBitIdentical builds the same networks with the kernel
// tier forced to pure Go, AVX2 and AVX-512 (each resolves to the widest
// tier this CPU executes within the cap, so the test is meaningful on any
// host and complete on an AVX-512 one) and requires Infer and
// InferBatch(1..8) logits to be bit-identical across them.
func TestKernelTiersBitIdentical(t *testing.T) {
	nets := map[string]func(sched.Features) (*Network, error){
		"TinyVGG": func(f sched.Features) (*Network, error) { return TinyVGG(f, RandomWeights{Seed: 90}) },
		"offgrid": offGridNet,
	}
	for name, build := range nets {
		var xs []*tensor.Tensor
		var want [][]float32
		for _, cap := range []kernels.Width{kernels.W64, kernels.W256, kernels.W512} {
			net, err := build(sched.Detect().WithMaxWidth(cap))
			if err != nil {
				t.Fatal(err)
			}
			if xs == nil {
				r := workload.NewRNG(92)
				for i := 0; i < 8; i++ {
					xs = append(xs, workload.RandTensor(r, net.InH, net.InW, net.InC))
				}
			}
			var got [][]float32
			for _, x := range xs {
				got = append(got, slices.Clone(net.Infer(x)))
			}
			for B := 1; B <= len(xs); B++ {
				outs, err := net.InferBatch(xs[:B])
				if err != nil {
					t.Fatal(err)
				}
				for b, out := range outs {
					if !slices.Equal(out, got[b]) {
						t.Fatalf("%s cap %v: InferBatch(%d) image %d = %v, Infer = %v", name, cap, B, b, out, got[b])
					}
				}
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s cap %v: image %d logits %v, want %v (pure-Go tier)", name, cap, i, got[i], want[i])
				}
			}
		}
	}
}

// benchDupWeights repeats four base filters through every conv bank: the
// benchmark's DupNet weight source (benchmark/gen.go).
func benchDupWeights(seed uint64) WeightSource {
	return dupWeights{
		RandomWeights: RandomWeights{Seed: seed},
		dup:           map[string]int{"c1": 4, "c2": 4, "c3": 4, "c4": 4},
	}
}

// TestPlannerSelectionsUnchangedByKernelTiers pins the scope of the real
// SIMD kernels: faster plain kernels, same plan. On the three benchmark
// networks the fusion and compression planners must pick exactly the
// layers they picked with the scalar kernels — DupNet's four duplicated
// banks, and nothing on the random-weight C=3 networks, whose filters
// are all distinct — whatever tier the kernels run at. Every conv and
// dense runs at the cap's tier over WordsFor of its input, whatever its
// channel count.
func TestPlannerSelectionsUnchangedByKernelTiers(t *testing.T) {
	cases := []struct {
		name       string
		build      func(sched.Features) (*Network, error)
		pairs      int
		eliminated int64
		compressed []string
	}{
		{"TinyVGG", func(f sched.Features) (*Network, error) { return TinyVGG(f, RandomWeights{Seed: 7}) },
			2, 32*32*1 + 16*16*2, nil},
		{"DupNet", func(f sched.Features) (*Network, error) {
			return NewBuilder("DupNet", 32, 32, 64, f).
				Conv3x3("c1", 256).Conv3x3("c2", 256).Pool("p1", 2, 2, 2).
				Conv3x3("c3", 512).Conv3x3("c4", 512).Pool("p2", 2, 2, 2).
				Flatten().Dense("fc", 10).
				Build(benchDupWeights(7))
		}, 2, 32*32*4 + 16*16*8, []string{"c1", "c2+p1", "c3", "c4+p2"}},
		{"VGG16", func(f sched.Features) (*Network, error) { return VGG16(f, RandomWeights{Seed: 7}) },
			5, 224*224*1 + 112*112*2 + 56*56*4 + 28*28*8 + 14*14*8, nil},
	}
	for _, tc := range cases {
		if tc.name == "VGG16" && testing.Short() {
			continue
		}
		for _, cap := range []kernels.Width{kernels.W64, kernels.W512} {
			net, err := tc.build(sched.Detect().WithMaxWidth(cap))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s cap %v", tc.name, cap)
			for _, nd := range net.nodes {
				switch {
				case nd.conv != nil:
					if cv := nd.conv; cv.Tier != cap.Tier() || cv.Filter().WPP != bitpack.WordsFor(cv.Shape.InC) || nd.words != cv.Filter().WPP {
						t.Errorf("%s: conv %q runs tier %v over %d words (plane %d), want %v over %d", label, nd.sp.name, cv.Tier, cv.Filter().WPP, nd.words, cap.Tier(), bitpack.WordsFor(cv.Shape.InC))
					}
				case nd.dense != nil:
					if d := nd.dense; d.Tier != cap.Tier() || d.Weights().WPR != bitpack.WordsFor(d.Shape.N) {
						t.Errorf("%s: dense %q runs tier %v over %d words, want %v over %d", label, nd.sp.name, d.Tier, d.Weights().WPR, cap.Tier(), bitpack.WordsFor(d.Shape.N))
					}
				}
			}
			if f := net.Fusion(); f.Pairs != tc.pairs || f.EliminatedWords != tc.eliminated {
				t.Errorf("%s: fusion %+v, want %d pairs eliminating %d words", label, f, tc.pairs, tc.eliminated)
			}
			var selected []string
			for _, lc := range net.Compression() {
				if lc.Selected {
					selected = append(selected, lc.Layer)
				}
			}
			if !slices.Equal(selected, tc.compressed) {
				t.Errorf("%s: compressed layers %v, want %v", label, selected, tc.compressed)
			}
		}
	}
}
