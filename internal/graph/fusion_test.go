package graph

import (
	"bytes"
	"testing"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// mixedNet builds a heterogeneous net exercising every fusion-planner
// edge: a float stem (never fused), a fusable conv→pool pair, an
// overlapping pool that must NOT fuse, and a dense head.
func mixedNet(t *testing.T, seed uint64) *Network {
	t.Helper()
	net, err := NewBuilder("mixed", 16, 16, 3, feat()).
		FloatConv("stem", 64, 3, 3, 1, 1).
		Conv3x3("c1", 64).
		Pool("p1", 2, 2, 2). // fuses with c1
		Conv3x3("c2", 64).
		Pool("p2", 3, 3, 2). // overlapping windows: stays separate
		Dense("out", 9).
		Build(RandomWeights{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestFusionPlanSelectivity(t *testing.T) {
	net := mixedNet(t, 70)
	var kinds []string
	for _, li := range net.Layers() {
		kinds = append(kinds, li.Kind)
	}
	want := []string{"floatconv", "conv+pool", "conv", "pool", "fc"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %v want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds %v want %v", kinds, want)
		}
	}
	if fs := net.Fusion(); fs.Pairs != 1 {
		t.Errorf("fusion stats %+v, want exactly the c1+p1 pair", fs)
	}
}

// TestFusionLogitsBitIdentical is the acceptance pin: fused and unfused
// plans produce bit-identical logits over Infer and InferBatch for
// batch sizes 1..8 (ragged sizes included), on both the all-binary and
// the mixed-precision topology.
func TestFusionLogitsBitIdentical(t *testing.T) {
	nets := map[string]*Network{"mixed": mixedNet(t, 71)}
	tiny, err := TinyVGG(feat(), RandomWeights{Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	nets["tinyvgg"] = tiny

	for name, fused := range nets {
		unfused := fused.CloneUnfused()
		if unfused.Fusion().Pairs != 0 {
			t.Fatalf("%s: unfused clone still has fused pairs", name)
		}
		r := workload.NewRNG(73)
		xs := make([]*tensor.Tensor, 8)
		for i := range xs {
			xs[i] = workload.RandTensor(r, fused.InH, fused.InW, fused.InC)
		}
		for _, x := range xs {
			want := unfused.Infer(x)
			got := fused.Infer(x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Infer logit %d: fused %v unfused %v", name, i, got[i], want[i])
				}
			}
		}
		for B := 1; B <= 8; B++ {
			wantB, err := unfused.InferBatch(xs[:B])
			if err != nil {
				t.Fatalf("%s: unfused batch %d: %v", name, B, err)
			}
			gotB, err := fused.InferBatch(xs[:B])
			if err != nil {
				t.Fatalf("%s: fused batch %d: %v", name, B, err)
			}
			for b := range wantB {
				for i := range wantB[b] {
					if gotB[b][i] != wantB[b][i] {
						t.Fatalf("%s: batch %d item %d logit %d differs", name, B, b, i)
					}
				}
			}
		}
	}
}

// TestFusionSerializationCompat pins forward/backward artifact
// compatibility: fusion is pure runtime planning, so an artifact saved
// from an unfused network is byte-identical to one saved fused, and
// loading either yields the fused plan with bit-identical logits.
func TestFusionSerializationCompat(t *testing.T) {
	ws := RandomWeights{Seed: 74}
	fused, err := TinyVGG(feat(), ws)
	if err != nil {
		t.Fatal(err)
	}
	unfused := fused.CloneUnfused()

	var fb, ub bytes.Buffer
	if _, err := fused.Save(&fb); err != nil {
		t.Fatal(err)
	}
	if _, err := unfused.Save(&ub); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), ub.Bytes()) {
		t.Fatal("fused and unfused networks serialize differently")
	}

	loaded, err := Load(bytes.NewReader(ub.Bytes()), feat())
	if err != nil {
		t.Fatal(err)
	}
	// The loader always plans fusion, regardless of how the saving
	// network was compiled — so layer names (the /statusz and observer
	// keys) are stable across a hot reload from a pre-fusion artifact.
	li, lw := loaded.Layers(), fused.Layers()
	if len(li) != len(lw) {
		t.Fatalf("loaded %d layers, fused build has %d", len(li), len(lw))
	}
	for i := range li {
		if li[i].Name != lw[i].Name || li[i].Kind != lw[i].Kind {
			t.Fatalf("layer %d: loaded %+v, fused build %+v", i, li[i], lw[i])
		}
	}
	x := workload.RandTensor(workload.NewRNG(75), 32, 32, 3)
	want := unfused.Infer(x)
	got := loaded.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: loaded-fused %v, saved-unfused %v", i, got[i], want[i])
		}
	}
}

// TestFusedLayerObserverNames pins the timing-observer contract: a fused
// node reports exactly once per pass under its joined name and the
// "conv+pool" kind, so dashboards keyed on layer names see no
// discontinuity when fusion collapses the layer list.
func TestFusedLayerObserverNames(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 76})
	if err != nil {
		t.Fatal(err)
	}
	type obs struct{ name, kind string }
	var seen []obs
	ec := exec.Serial().WithObserver(func(layer, kind string, d time.Duration) {
		seen = append(seen, obs{layer, kind})
	})
	net.SetExec(ec)
	net.Infer(workload.RandTensor(workload.NewRNG(77), 32, 32, 3))
	want := []obs{
		{"input", "pack"},
		{"conv1.1", "conv"},
		{"conv1.2+pool1", "conv+pool"},
		{"conv2.1+pool2", "conv+pool"},
		{"fc1", "fc"},
		{"fc2", "fc"},
	}
	if len(seen) != len(want) {
		t.Fatalf("observed %v want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observation %d = %v want %v", i, seen[i], want[i])
		}
	}
}

// TestFusionBatchLanesInheritPlan pins that EnsureBatch lanes follow the
// base network's plan for both fused and unfused networks (a mixed pool
// would compare unlike plans).
func TestFusionBatchLanesInheritPlan(t *testing.T) {
	fused := mixedNet(t, 78)
	unfused := fused.CloneUnfused()
	fused.EnsureBatch(3)
	unfused.EnsureBatch(3)
	for i, lane := range fused.lanes {
		if lane.Fusion().Pairs != fused.Fusion().Pairs {
			t.Fatalf("fused lane %d has %d pairs", i, lane.Fusion().Pairs)
		}
	}
	for i, lane := range unfused.lanes {
		if lane.Fusion().Pairs != 0 {
			t.Fatalf("unfused lane %d has %d pairs", i, lane.Fusion().Pairs)
		}
	}
}
