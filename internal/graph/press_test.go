package graph

import (
	"bytes"
	"testing"

	"bitflow/internal/kernels"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// dupWeights is a WeightSource producing duplicated banks for chosen
// layers: layer weights repeat one of `bases` base patterns per output
// channel, so a conv bank holds at most `bases` distinct filters and
// folds when K/bases ≥ kernels.CompressMinRatio. Unlisted layers fall
// through to plain RandomWeights (all filters distinct, ratio 1).
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
// duplicated conv→pool pair (fuses AND folds), a random conv→pool pair
// (fuses, sweeps every filter), a duplicated hidden dense (dense layers
// always sweep), and a random classifier.
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
// the straddle net: exactly the duplicated conv folds, the random,
// float and dense layers do not — the duplicated dense still sweeps —
// and the report carries the measured ratios.
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
// C=3 inputs, so each packed tap word has ≤ 2³ possible values, but the
// rule reads whole filters: the 64 random filters are distinct, the
// filter ratio is 1 and the bank sweeps.
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
	if first.Selected || first.Ratio != 1 || first.DistinctWords != first.TotalWords {
		t.Errorf("conv1.1: selected=%v ratio=%.2f distinct words %d of %d, want ratio 1 and not selected",
			first.Selected, first.Ratio, first.DistinctWords, first.TotalWords)
	}
}

// TestCompressionLogitsBitIdentical is the acceptance pin: compressed
// and uncompressed plans produce bit-identical logits over Infer and
// InferBatch for B = 1..8, on fused and unfused data-flow, including
// the mixed-precision float stem. The straddle net's duplicated conv
// folds, so it sweeps its distinct filters; TinyVGG's conv1.1 is given
// 4 repeated filters, so a sub-word (C = 3) bank folds.
func TestCompressionLogitsBitIdentical(t *testing.T) {
	fused := straddleNet(t, 82)
	tiny, err := TinyVGG(feat(), dupWeights{
		RandomWeights: RandomWeights{Seed: 83},
		dup:           map[string]int{"conv1.1": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]*Network{
		"fused":        fused,
		"unfused":      fused.CloneUnfused(),
		"tinyvgg-fold": tiny,
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
