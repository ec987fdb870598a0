package bitflow_test

import (
	"bytes"
	"testing"

	"bitflow"
	"bitflow/internal/workload"
)

func TestPublicQuickstart(t *testing.T) {
	feat := bitflow.Detect()
	net, err := bitflow.NewBuilder("demo", 16, 16, 64, feat).
		Conv3x3("conv1", 64).
		Pool("pool1", 2, 2, 2).
		Dense("fc", 10).
		Build(bitflow.RandomWeights{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	x := bitflow.NewTensor(16, 16, 64)
	r := workload.NewRNG(1)
	for i := range x.Data {
		x.Data[i] = 2*r.Float32() - 1
	}
	logits := net.Infer(x)
	if len(logits) != 10 {
		t.Fatalf("logits %d", len(logits))
	}
}

func TestPublicTinyVGG(t *testing.T) {
	net, err := bitflow.TinyVGG(bitflow.Detect(), bitflow.RandomWeights{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if net.Classes != 10 {
		t.Errorf("classes %d", net.Classes)
	}
	ms := net.ModelSize()
	if ms.Compression() < 20 {
		t.Errorf("compression %.1f", ms.Compression())
	}
}

func TestPublicConstructors(t *testing.T) {
	if m := bitflow.NewMatrix(2, 3); m.Rows != 2 || m.Cols != 3 {
		t.Error("NewMatrix")
	}
	if f := bitflow.NewFilter(1, 3, 3, 8); f.K != 1 || f.C != 8 {
		t.Error("NewFilter")
	}
	if x := bitflow.TensorFromSlice(1, 1, 2, []float32{1, 2}); x.At(0, 0, 1) != 2 {
		t.Error("TensorFromSlice")
	}
	if bitflow.Version == "" {
		t.Error("empty version")
	}
}

func TestPublicBatchNormAndFloatConv(t *testing.T) {
	feat := bitflow.Detect()
	net, err := bitflow.NewBuilder("mixed", 16, 16, 3, feat).
		FloatConv("stem", 64, 3, 3, 1, 1).
		BatchNorm("stem/bn").
		Conv3x3("conv1", 64).
		Pool("pool1", 2, 2, 2).
		Dense("fc", 10).
		Build(bitflow.RandomWeights{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x := bitflow.NewTensor(16, 16, 3)
	r := workload.NewRNG(10)
	for i := range x.Data {
		x.Data[i] = 2*r.Float32() - 1
	}
	if got := net.Infer(x); len(got) != 10 {
		t.Fatalf("logits %d", len(got))
	}
}

func TestPublicSaveLoad(t *testing.T) {
	feat := bitflow.Detect()
	net, err := bitflow.TinyVGG(feat, bitflow.RandomWeights{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bitflow.Load(&buf, feat)
	if err != nil {
		t.Fatal(err)
	}
	x := bitflow.NewTensor(32, 32, 3)
	r := workload.NewRNG(12)
	for i := range x.Data {
		x.Data[i] = 2*r.Float32() - 1
	}
	want := net.Infer(x)
	got := loaded.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d differs after save/load", i)
		}
	}
}

func TestPublicClone(t *testing.T) {
	net, err := bitflow.TinyVGG(bitflow.Detect(), bitflow.RandomWeights{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	clone := net.Clone()
	x := bitflow.NewTensor(32, 32, 3)
	want := net.Infer(x)
	got := clone.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone logit %d differs", i)
		}
	}
}

// TestPublicExec exercises the execution-context exports: a shared pool
// attached through the facade must leave logits bit-identical to the
// default serial path.
func TestPublicExec(t *testing.T) {
	feat := bitflow.Detect()
	net, err := bitflow.NewBuilder("execdemo", 16, 16, 64, feat).
		Conv3x3("conv1", 64).
		Pool("pool1", 2, 2, 2).
		Dense("fc", 10).
		Build(bitflow.RandomWeights{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	x := bitflow.NewTensor(16, 16, 64)
	r := workload.NewRNG(2)
	for i := range x.Data {
		x.Data[i] = 2*r.Float32() - 1
	}
	want := net.Infer(x)

	p := bitflow.NewExecPool(3)
	defer p.Close()
	net.SetExec(bitflow.Pooled(p, 4))
	got := net.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled logit %d = %v, want %v", i, got[i], want[i])
		}
	}
	if p.Report().Dispatches == 0 {
		t.Error("no dispatches reached the facade pool")
	}

	net.SetExec(bitflow.Serial())
	if rep := bitflow.ExecDefault().Report(); rep.Workers < 1 {
		t.Errorf("default pool reports %d workers", rep.Workers)
	}
}
