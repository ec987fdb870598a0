package graph

import (
	"bytes"
	"testing"

	"bitflow/internal/core"
	"bitflow/internal/kernels"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// dupWeights is a WeightSource producing adversarially duplicated banks
// for chosen layers: layer weights repeat one of `bases` base patterns
// per output channel, so the packed words duplicate with ratio ≥
// K/bases and the layer crosses the compression threshold. Unlisted
// layers fall through to plain RandomWeights (ratio ≈ 1 for wide
// random banks).
type dupWeights struct {
	RandomWeights
	dup map[string]int // layer name → base pattern count
}

func (d dupWeights) ConvFilter(name string, k, kh, kw, c int) (*tensor.Filter, error) {
	f, err := d.RandomWeights.ConvFilter(name, k, kh, kw, c)
	if bases := d.dup[name]; err == nil && bases > 0 {
		per := kh * kw * c
		for i := bases; i < k; i++ {
			copy(f.Data[i*per:(i+1)*per], f.Data[(i%bases)*per:(i%bases+1)*per])
		}
	}
	return f, err
}

func (d dupWeights) DenseMatrix(name string, n, k int) (*tensor.Matrix, error) {
	m, err := d.RandomWeights.DenseMatrix(name, n, k)
	if bases := d.dup[name]; err == nil && bases > 0 {
		// Output unit k's weights are column k; repeating columns
		// duplicates the packed-transposed rows the plan clusters.
		for row := 0; row < n; row++ {
			for col := bases; col < k; col++ {
				m.Data[row*k+col] = m.Data[row*k+col%bases]
			}
		}
	}
	return m, err
}

// straddleNet builds a mixed-precision net whose layers straddle the
// compression-ratio threshold: a float stem (never compressed), a
// duplicated conv→pool pair (fuses AND compresses), a random conv→pool
// pair (fuses, stays uncompressed), a duplicated hidden dense (measured,
// never planned: dense layers always sweep), and a random classifier.
func straddleNet(t *testing.T, seed uint64) *Network {
	t.Helper()
	ws := dupWeights{
		RandomWeights: RandomWeights{Seed: seed},
		dup:           map[string]int{"cdup": 4, "ddup": 4},
	}
	net, err := NewBuilder("straddle", 16, 16, 3, feat()).
		FloatConv("stem", 64, 3, 3, 1, 1).
		Conv3x3("cdup", 64).
		Pool("p1", 2, 2, 2).
		Conv3x3("crand", 64).
		Pool("p2", 2, 2, 2).
		Dense("ddup", 64).
		Dense("out", 9).
		Build(ws)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestCompressionPlanSelectivity pins the per-layer compressed split of
// the straddle net: exactly the duplicated conv selects, the random,
// float and dense layers do not — the duplicated dense clears the ratio
// threshold and still sweeps — and the report carries the measured
// ratios.
func TestCompressionPlanSelectivity(t *testing.T) {
	net := straddleNet(t, 80)
	report := net.Compression()
	want := map[string]bool{
		"cdup+p1":  true,
		"crand+p2": false,
		"ddup":     false,
		"out":      false,
	}
	if len(report) != len(want) {
		t.Fatalf("report has %d entries (%+v), want %d", len(report), report, len(want))
	}
	for _, lc := range report {
		sel, ok := want[lc.Layer]
		if !ok {
			t.Fatalf("unexpected report entry %+v", lc)
		}
		if lc.Selected != sel {
			t.Errorf("layer %s: selected=%v want %v (ratio %.2f)", lc.Layer, lc.Selected, sel, lc.Ratio)
		}
		if lc.TotalWords == 0 || lc.DistinctWords == 0 || lc.Ratio == 0 {
			t.Errorf("layer %s: unmeasured stats %+v", lc.Layer, lc)
		}
		if sel && lc.Ratio < kernels.CompressMinRatio {
			t.Errorf("layer %s selected below threshold: ratio %.2f", lc.Layer, lc.Ratio)
		}
		if !sel && lc.Kind != "fc" && lc.Ratio >= kernels.CompressMinRatio {
			t.Errorf("layer %s not selected above threshold: ratio %.2f", lc.Layer, lc.Ratio)
		}
		if lc.Layer == "ddup" && lc.Ratio < kernels.CompressMinRatio {
			t.Errorf("duplicated dense measured ratio %.2f, want ≥ %v", lc.Ratio, kernels.CompressMinRatio)
		}
	}
	if got := net.CompressedLayers(); got != 1 {
		t.Errorf("CompressedLayers = %d, want 1", got)
	}
	un := net.CloneUncompressed()
	if un.CompressedLayers() != 0 {
		t.Errorf("uncompressed clone: CompressedLayers=%d", un.CompressedLayers())
	}
	// The analysis is still measured on the uncompressed clone.
	for _, lc := range un.Compression() {
		if lc.Selected {
			t.Errorf("uncompressed clone layer %s runs compressed", lc.Layer)
		}
	}
}

// TestTinyVGGAutoCompression pins the real-topology case: conv1.1 reads
// C=3 inputs, so each packed tap word has ≤ 2³ possible values and the
// 64-filter bank compresses ≥ 8× — selected without any weight rigging.
func TestTinyVGGAutoCompression(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	report := net.Compression()
	if len(report) == 0 || report[0].Layer != "conv1.1" {
		t.Fatalf("unexpected report head: %+v", report)
	}
	first := report[0]
	if !first.Selected || first.Ratio < 8 {
		t.Errorf("conv1.1: selected=%v ratio=%.2f, want selected with ratio ≥ 8", first.Selected, first.Ratio)
	}
}

// TestCompressionLogitsBitIdentical is the acceptance pin: compressed
// and uncompressed plans produce bit-identical logits over Infer and
// InferBatch for B = 1..8, on fused and unfused data-flow, including
// the mixed-precision float stem.
func TestCompressionLogitsBitIdentical(t *testing.T) {
	fused := straddleNet(t, 82)
	variants := map[string]*Network{
		"fused":           fused,
		"unfused":         fused.CloneUnfused(),
		"tinyvgg-autosel": mustTinyVGG(t, 83),
	}
	for name, pressed := range variants {
		if pressed.CompressedLayers() == 0 {
			t.Fatalf("%s: no compressed layers — the differential would be vacuous", name)
		}
		plain := pressed.CloneUncompressed()
		r := workload.NewRNG(84)
		xs := make([]*tensor.Tensor, 8)
		for i := range xs {
			xs[i] = workload.RandTensor(r, pressed.InH, pressed.InW, pressed.InC)
		}
		for _, x := range xs {
			want := plain.Infer(x)
			got := pressed.Infer(x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Infer logit %d: compressed %v uncompressed %v", name, i, got[i], want[i])
				}
			}
		}
		for B := 1; B <= 8; B++ {
			wantB, err := plain.InferBatch(xs[:B])
			if err != nil {
				t.Fatalf("%s: uncompressed batch %d: %v", name, B, err)
			}
			gotB, err := pressed.InferBatch(xs[:B])
			if err != nil {
				t.Fatalf("%s: compressed batch %d: %v", name, B, err)
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

func mustTinyVGG(t *testing.T, seed uint64) *Network {
	t.Helper()
	net, err := TinyVGG(feat(), RandomWeights{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestCompressionSerializationCompat pins that the plan is pure runtime
// state: compressed and uncompressed networks serialize byte-identical
// (no plan metadata), and loading re-plans compression with logits
// bit-identical to the uncompressed build.
func TestCompressionSerializationCompat(t *testing.T) {
	pressed := straddleNet(t, 85)
	plain := pressed.CloneUncompressed()

	var pb, ub bytes.Buffer
	if _, err := pressed.Save(&pb); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Save(&ub); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), ub.Bytes()) {
		t.Fatal("compressed and uncompressed networks serialize differently")
	}

	loaded, err := Load(bytes.NewReader(pb.Bytes()), feat())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CompressedLayers() != pressed.CompressedLayers() {
		t.Fatalf("loaded plans %d compressed layers, build had %d",
			loaded.CompressedLayers(), pressed.CompressedLayers())
	}
	x := workload.RandTensor(workload.NewRNG(86), pressed.InH, pressed.InW, pressed.InC)
	want := plain.Infer(x)
	got := loaded.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: loaded-compressed %v, uncompressed %v", i, got[i], want[i])
		}
	}
}

// TestCompressionBatchLanesInherit pins that EnsureBatch lanes follow
// the base network's compression plan — and that an uncompressed
// network's lanes stay uncompressed.
func TestCompressionBatchLanesInherit(t *testing.T) {
	pressed := straddleNet(t, 87)
	plain := pressed.CloneUncompressed()
	pressed.EnsureBatch(3)
	plain.EnsureBatch(3)
	for i, lane := range pressed.lanes {
		if lane.CompressedLayers() != pressed.CompressedLayers() {
			t.Fatalf("compressed lane %d has %d compressed layers, want %d",
				i, lane.CompressedLayers(), pressed.CompressedLayers())
		}
	}
	for i, lane := range plain.lanes {
		if lane.CompressedLayers() != 0 {
			t.Fatalf("uncompressed lane %d has %d compressed layers", i, lane.CompressedLayers())
		}
	}
}

// TestSetCompressionTakesEffect pins the test/bench hook: a plan forced
// on a shared operator is what the network's next forward runs, and
// clearing it reverts — while an uncompressed clone, holding plan-less
// copies of the operators, is not touched by either.
func TestSetCompressionTakesEffect(t *testing.T) {
	net := mixedNet(t, 88) // all wide random banks: nothing auto-selects
	if net.CompressedLayers() != 0 {
		t.Fatalf("mixed net unexpectedly auto-selected %d layers", net.CompressedLayers())
	}
	var target *core.Conv
	for _, l := range net.layers {
		if cl, ok := l.(*convLayer); ok && cl.pool != nil {
			target = cl.op
			break
		}
	}
	if target == nil {
		t.Fatal("no fused conv found")
	}
	// Force a plan below threshold and compare logits against an
	// uncompressed clone taken beforehand — the low-duplication plan must
	// still be bit-exact end to end.
	plain := net.CloneUncompressed()
	pf := target.Filter()
	fstride := len(pf.Words) / target.Shape.K
	plan := kernels.BuildCompressPlan(pf.Words, target.Shape.K, fstride)
	if err := target.SetCompression(plan); err != nil {
		t.Fatal(err)
	}
	if net.CompressedLayers() != 1 {
		t.Fatalf("forced plan not picked up: %d compressed layers", net.CompressedLayers())
	}
	if plain.CompressedLayers() != 0 || net.CloneUncompressed().CompressedLayers() != 0 {
		t.Fatal("forced plan reached an uncompressed clone")
	}
	x := workload.RandTensor(workload.NewRNG(89), net.InH, net.InW, net.InC)
	want := plain.Infer(x)
	got := net.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forced-plan logit %d: compressed %v uncompressed %v", i, got[i], want[i])
		}
	}
	if err := target.SetCompression(nil); err != nil {
		t.Fatal(err)
	}
	if net.CompressedLayers() != 0 {
		t.Fatal("cleared plan still selected")
	}
}
