package core

import (
	"testing"
	"testing/quick"

	"bitflow/internal/baseline"
	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

func TestFloatConvMatchesBaselineConv(t *testing.T) {
	r := workload.NewRNG(85)
	for _, tc := range []struct{ h, w, c, k, kh, kw, stride, pad int }{
		{8, 8, 3, 16, 3, 3, 1, 1},  // the VGG first-layer geometry, scaled
		{6, 6, 5, 8, 3, 3, 1, 0},   // no padding
		{10, 10, 3, 4, 5, 5, 2, 2}, // strided 5×5
		{4, 4, 1, 70, 1, 1, 1, 0},  // 1×1, K spanning multiple words
		{3, 3, 2, 520, 1, 1, 1, 0}, // K beyond the chunk's stack scratch
	} {
		shape, err := sched.InferConv(tc.h, tc.w, tc.c, tc.k, tc.kh, tc.kw, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		in := workload.RandTensor(r, tc.h, tc.w, tc.c)
		filt := workload.RandFilter(r, tc.k, tc.kh, tc.kw, tc.c)
		fc, err := NewFloatConv(shape, filt)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: float conv with zero padding, then sign.
		want := baseline.ConvDirect(in, filt, tc.stride, tc.pad, 0, 1).Sign()
		for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(2)} {
			out := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, bitpack.WordsFor(shape.OutC), 1, 1)
			fc.Forward(in, out, ec)
			if !bitpack.Unpack(out).Equal(want) {
				t.Errorf("%+v budget %d: float conv sign bits differ", tc, ec.Budget())
			}
			if !out.MarginsAllZero() {
				t.Errorf("%+v budget %d: margins dirtied", tc, ec.Budget())
			}
			if !out.TailClean() {
				t.Errorf("%+v budget %d: tail lanes dirty", tc, ec.Budget())
			}
		}
	}
}

// TestFloatConvQuick: the property form over random geometries.
func TestFloatConvQuick(t *testing.T) {
	f := func(seed uint64, hh, cc, kk uint8) bool {
		h := int(hh)%5 + 3
		c := int(cc)%4 + 1
		k := int(kk)%20 + 1
		r := workload.NewRNG(seed)
		shape, err := sched.InferConv(h, h, c, k, 3, 3, 1, 1)
		if err != nil {
			return true
		}
		in := workload.RandTensor(r, h, h, c)
		filt := workload.RandFilter(r, k, 3, 3, c)
		fc, err := NewFloatConv(shape, filt)
		if err != nil {
			return false
		}
		out := bitpack.NewPacked(shape.OutH, shape.OutW, k, bitpack.WordsFor(k), 0, 0)
		fc.Forward(in, out, exec.Serial())
		want := baseline.ConvDirect(in, filt, 1, 1, 0, 1).Sign()
		return bitpack.Unpack(out).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFloatConvAffine(t *testing.T) {
	r := workload.NewRNG(86)
	shape, _ := sched.InferConv(5, 5, 3, 6, 3, 3, 1, 1)
	in := workload.RandTensor(r, 5, 5, 3)
	filt := workload.RandFilter(r, 6, 3, 3, 3)
	fc, err := NewFloatConv(shape, filt)
	if err != nil {
		t.Fatal(err)
	}
	bias := []float32{2, -2, 0.5, -0.5, 10, -10}
	if err := fc.SetAffine(NewAffineFromBias(bias)); err != nil {
		t.Fatal(err)
	}
	out := bitpack.NewPacked(5, 5, 6, 1, 0, 0)
	fc.Forward(in, out, exec.Serial())
	got := bitpack.Unpack(out)

	raw := baseline.ConvDirect(in, filt, 1, 1, 0, 1)
	for h := 0; h < 5; h++ {
		for w := 0; w < 5; w++ {
			for c := 0; c < 6; c++ {
				want := float32(-1)
				if raw.At(h, w, c)+bias[c] >= 0 {
					want = 1
				}
				if got.At(h, w, c) != want {
					t.Fatalf("(%d,%d,%d): got %v want %v", h, w, c, got.At(h, w, c), want)
				}
			}
		}
	}
	if err := fc.SetAffine(&Affine{Scale: make([]float32, 2)}); err == nil {
		t.Error("wrong-size affine: expected error")
	}
}

func TestNewFloatConvErrors(t *testing.T) {
	shape, _ := sched.InferConv(5, 5, 3, 6, 3, 3, 1, 1)
	r := workload.NewRNG(87)
	if _, err := NewFloatConv(shape, workload.RandFilter(r, 6, 3, 3, 4)); err == nil {
		t.Error("mismatched filter: expected error")
	}
}

func TestFloatConvInputValidationPanics(t *testing.T) {
	r := workload.NewRNG(88)
	shape, _ := sched.InferConv(5, 5, 3, 6, 3, 3, 1, 1)
	fc, _ := NewFloatConv(shape, workload.RandFilter(r, 6, 3, 3, 3))
	out := bitpack.NewPacked(5, 5, 6, 1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("wrong input shape did not panic")
		}
	}()
	fc.Forward(workload.RandTensor(r, 4, 5, 3), out, exec.Serial())
}

func TestFloatConvFilterIsCopied(t *testing.T) {
	r := workload.NewRNG(89)
	shape, _ := sched.InferConv(4, 4, 2, 3, 3, 3, 1, 1)
	filt := workload.RandFilter(r, 3, 3, 3, 2)
	fc, _ := NewFloatConv(shape, filt)
	in := workload.RandTensor(r, 4, 4, 2)
	out := bitpack.NewPacked(4, 4, 3, 1, 0, 0)
	fc.Forward(in, out, exec.Serial())
	before := append([]uint64(nil), out.Words...)
	// Mutating the caller's filter must not affect the operator.
	for i := range filt.Data {
		filt.Data[i] = -filt.Data[i]
	}
	fc.Forward(in, out, exec.Serial())
	for i := range before {
		if out.Words[i] != before[i] {
			t.Fatal("operator aliased the caller's filter storage")
		}
	}
}
