package core

import (
	"testing"
	"testing/quick"

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

// buildConv constructs a PressedConv for the given geometry with a fresh
// random ±1 filter, plus the matching ±1 input and packed input buffer.
func buildConv(t testing.TB, r *workload.RNG, h, w, c, k, kh, kw, stride, pad int) (*Conv, *tensor.Tensor, *bitpack.Packed) {
	t.Helper()
	shape, err := sched.InferConv(h, w, c, k, kh, kw, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	tier := feat().MaxWidth
	f := workload.PM1Filter(r, k, kh, kw, c)
	cv, err := NewConv(shape, tier, f)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.PM1Tensor(r, h, w, c)
	packed := cv.NewInput()
	bitpack.PackTensorInto(in, packed)
	return cv, in, packed
}

func TestPressedConvMatchesFloatReference(t *testing.T) {
	r := workload.NewRNG(40)
	cases := []struct{ h, w, c, k, kh, kw, stride, pad int }{
		{5, 5, 64, 3, 3, 3, 1, 1},  // one word per pixel
		{5, 5, 128, 4, 3, 3, 1, 1}, // two words
		{4, 6, 256, 2, 3, 3, 1, 1}, // four words
		{4, 4, 512, 5, 3, 3, 1, 1}, // eight words
		{6, 6, 3, 2, 3, 3, 1, 1},   // channel pad (conv1.1 case)
		{7, 5, 100, 3, 3, 3, 1, 1}, // non-multiple-of-64 channels
		{5, 5, 64, 3, 1, 1, 1, 0},  // 1×1 conv
		{8, 8, 64, 2, 3, 3, 2, 1},  // stride 2
		{9, 9, 64, 2, 5, 5, 1, 2},  // 5×5 window, pad 2
		{3, 3, 64, 2, 3, 3, 1, 0},  // no padding
		{1, 1, 64, 4, 1, 1, 1, 0},  // degenerate 1×1 input
		{4, 4, 192, 2, 3, 3, 1, 1}, // 192 = 3·64: scalar tier, 3 words
	}
	for _, tc := range cases {
		cv, in, packed := buildConv(t, r, tc.h, tc.w, tc.c, tc.k, tc.kh, tc.kw, tc.stride, tc.pad)
		out := tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC)
		cv.Forward(packed, out, exec.Serial())
		// Binarized padding pads bit 0 = feature −1.
		want := baseline.ConvDirect(in, bitpack.UnpackFilter(cv.Filter()), tc.stride, tc.pad, -1, 1)
		if !out.Equal(want) {
			t.Errorf("%+v: PressedConv != float reference (max diff %g)", tc, out.MaxAbsDiff(want))
		}
	}
}

// TestPressedConvQuick is the property-based cross-check over arbitrary
// small geometries.
func TestPressedConvQuick(t *testing.T) {
	f := func(seed uint64, hh, ww, cc, kk, pp uint8) bool {
		h := int(hh)%6 + 3
		w := int(ww)%6 + 3
		c := int(cc)%150 + 1
		k := int(kk)%5 + 1
		pad := int(pp) % 2
		r := workload.NewRNG(seed)
		shape, err := sched.InferConv(h, w, c, k, 3, 3, 1, pad)
		if err != nil {
			return true // geometry rejected is fine
		}
		tier := feat().MaxWidth
		filt := workload.PM1Filter(r, k, 3, 3, c)
		cv, err := NewConv(shape, tier, filt)
		if err != nil {
			return false
		}
		in := workload.PM1Tensor(r, h, w, c)
		packed := cv.NewInput()
		bitpack.PackTensorInto(in, packed)
		out := tensor.New(shape.OutH, shape.OutW, shape.OutC)
		cv.Forward(packed, out, exec.Serial())
		want := baseline.ConvDirect(in, filt.Sign(), 1, pad, -1, 1)
		return out.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPressedConvThreadsAgree(t *testing.T) {
	r := workload.NewRNG(41)
	cv, _, packed := buildConv(t, r, 12, 10, 128, 8, 3, 3, 1, 1)
	serial := tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC)
	cv.Forward(packed, serial, exec.Serial())
	for _, threads := range []int{2, 4, 16, 1000} {
		out := tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC)
		cv.Forward(packed, out, exec.Threads(threads))
		if !out.Equal(serial) {
			t.Errorf("threads=%d: output differs from serial", threads)
		}
	}
}

func TestForwardPackedIsSignOfForward(t *testing.T) {
	r := workload.NewRNG(42)
	for _, c := range []int{64, 128, 100, 512} {
		cv, _, packed := buildConv(t, r, 6, 6, c, 70, 3, 3, 1, 1)
		raw := tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC)
		cv.Forward(packed, raw, exec.Threads(2))
		pOut := bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, bitpack.WordsFor(cv.Shape.OutC), 1, 1)
		cv.ForwardPacked(packed, nil, pOut, exec.Threads(2))
		want := raw.Sign()
		got := bitpack.Unpack(pOut)
		if !got.Equal(want) {
			t.Errorf("C=%d: ForwardPacked != sign(Forward)", c)
		}
		if !pOut.MarginsAllZero() {
			t.Errorf("C=%d: ForwardPacked dirtied output margins", c)
		}
		if !pOut.TailClean() {
			t.Errorf("C=%d: ForwardPacked left dirty tail lanes", c)
		}
	}
}

func TestConvZeroCostPaddingEqualsExplicitPad(t *testing.T) {
	// Packing into a margined buffer and convolving with pad must equal
	// explicitly padding the float tensor with −1 and convolving without
	// pad — the Fig. 5 equivalence.
	r := workload.NewRNG(43)
	cv, in, packed := buildConv(t, r, 6, 6, 64, 4, 3, 3, 1, 1)
	out := tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC)
	cv.Forward(packed, out, exec.Serial())

	padded := in.PadSpatial(1, -1)
	want := baseline.ConvDirect(padded, bitpack.UnpackFilter(cv.Filter()), 1, 0, 0, 1)
	if !out.Equal(want) {
		t.Error("zero-cost padding != explicit −1 padding")
	}
}

func TestNewConvErrors(t *testing.T) {
	shape, _ := sched.InferConv(5, 5, 64, 2, 3, 3, 1, 1)
	tier := feat().MaxWidth
	r := workload.NewRNG(44)
	if _, err := NewConv(shape, tier, workload.PM1Filter(r, 2, 3, 3, 128)); err == nil {
		t.Error("mismatched filter channels: expected error")
	}
	if _, err := NewConvPacked(shape, tier, bitpack.PackFilter(workload.PM1Filter(r, 2, 3, 3, 64), 2)); err == nil {
		t.Error("packed filter with the wrong words per tap: expected error")
	}
	bigShape, _ := sched.InferConv(40, 40, 64, 2, 17, 17, 1, 0)
	if _, err := NewConv(bigShape, tier, workload.PM1Filter(r, 2, 17, 17, 64)); err == nil {
		t.Error("KH over maxKH: expected error")
	}
}

func TestConvInputValidationPanics(t *testing.T) {
	r := workload.NewRNG(45)
	cv, _, _ := buildConv(t, r, 5, 5, 64, 2, 3, 3, 1, 1)
	out := tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC)
	cases := map[string]func(){
		"wrong interior": func() {
			bad := bitpack.NewPacked(4, 5, 64, 1, 1, 1)
			cv.Forward(bad, out, exec.Serial())
		},
		"wrong wpp": func() {
			bad := bitpack.NewPacked(5, 5, 64, 2, 1, 1)
			cv.Forward(bad, out, exec.Serial())
		},
		"missing margin": func() {
			bad := bitpack.NewPacked(5, 5, 64, 1, 0, 0)
			cv.Forward(bad, out, exec.Serial())
		},
		"wrong output": func() {
			good := cv.NewInput()
			cv.Forward(good, tensor.New(1, 1, 1), exec.Serial())
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPoolMatchesFloatReference(t *testing.T) {
	r := workload.NewRNG(46)
	for _, tc := range []struct{ h, w, c, kh, kw, stride int }{
		{4, 4, 64, 2, 2, 2},
		{6, 6, 512, 2, 2, 2},
		{5, 5, 100, 2, 2, 1}, // overlapping windows
		{9, 7, 3, 3, 3, 3},
		{4, 4, 65, 2, 2, 2},
	} {
		shape, err := sched.InferPool(tc.h, tc.w, tc.c, tc.kh, tc.kw, tc.stride)
		if err != nil {
			t.Fatal(err)
		}
		wpp := bitpack.WordsFor(tc.c)
		pl, err := NewPool(shape, wpp)
		if err != nil {
			t.Fatal(err)
		}
		in := workload.PM1Tensor(r, tc.h, tc.w, tc.c)
		pin := bitpack.PackTensor(in, wpp, 0, 0)
		pout := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, wpp, 0, 0)
		pl.Forward(pin, pout, exec.Serial())
		got := bitpack.Unpack(pout)
		want := baseline.MaxPoolFloat(in, tc.kh, tc.kw, tc.stride, 1)
		if !got.Equal(want) {
			t.Errorf("%+v: binary OR pool != float max pool", tc)
		}
	}
}

func TestPoolThreadsAgree(t *testing.T) {
	r := workload.NewRNG(47)
	shape, _ := sched.InferPool(8, 8, 512, 2, 2, 2)
	wpp := bitpack.WordsFor(512)
	pl, _ := NewPool(shape, wpp)
	in := workload.PM1Tensor(r, 8, 8, 512)
	pin := bitpack.PackTensor(in, wpp, 0, 0)
	serial := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, wpp, 0, 0)
	pl.Forward(pin, serial, exec.Serial())
	for _, threads := range []int{2, 7, 64} {
		out := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, wpp, 0, 0)
		pl.Forward(pin, out, exec.Threads(threads))
		for i := range serial.Words {
			if out.Words[i] != serial.Words[i] {
				t.Fatalf("threads=%d differs at word %d", threads, i)
			}
		}
	}
}

func TestPoolIntoMarginedOutput(t *testing.T) {
	// Pool writing into a margined buffer (feeding a padded conv) must
	// keep margins zero.
	r := workload.NewRNG(48)
	shape, _ := sched.InferPool(4, 4, 64, 2, 2, 2)
	pl, _ := NewPool(shape, 1)
	in := workload.PM1Tensor(r, 4, 4, 64)
	pin := bitpack.PackTensor(in, 1, 0, 0)
	pout := bitpack.NewPacked(2, 2, 64, 1, 1, 1)
	pl.Forward(pin, pout, exec.Serial())
	if !pout.MarginsAllZero() {
		t.Error("pool dirtied output margins")
	}
	if !bitpack.Unpack(pout).Equal(baseline.MaxPoolFloat(in, 2, 2, 2, 1)) {
		t.Error("pool interior wrong")
	}
}

func TestNewPoolError(t *testing.T) {
	shape, _ := sched.InferPool(4, 4, 128, 2, 2, 2)
	if _, err := NewPool(shape, 1); err == nil {
		t.Error("wpp too small: expected error")
	}
}

func TestDenseMatchesFloatReference(t *testing.T) {
	r := workload.NewRNG(49)
	for _, tc := range []struct{ n, k int }{
		{64, 10}, {128, 7}, {100, 5}, {512, 64}, {2048, 33}, {65, 1},
	} {
		shape, err := sched.InferFC(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		tier := feat().MaxWidth
		w := workload.PM1Matrix(r, tc.n, tc.k)
		d, err := NewDense(shape, tier, w)
		if err != nil {
			t.Fatal(err)
		}
		inVals := make([]float32, tc.n)
		for i := range inVals {
			inVals[i] = r.PM1()
		}
		in := d.NewInput()
		bitpack.PackVectorInto(in, inVals)
		got := make([]int32, tc.k)
		d.Forward(in, DenseOut{Acc: got}, exec.Serial())
		want := make([]float32, tc.k)
		baseline.DenseFloat(inVals, w, want, 1)
		for i := range want {
			if float32(got[i]) != want[i] {
				t.Errorf("n=%d k=%d: out[%d] = %d want %v", tc.n, tc.k, i, got[i], want[i])
			}
		}
	}
}

// TestDenseForwardVariants checks each output form of the one
// Dense.Forward against Equation 1's float reference: the accumulators
// against baseline.DenseFloat, the logits against it plus the bias, and
// the bits against the sign of that sum — with K off the 64-bit grid,
// serial and split over K.
func TestDenseForwardVariants(t *testing.T) {
	r := workload.NewRNG(50)
	n, k := 200, 70
	shape, _ := sched.InferFC(n, k)
	w := workload.PM1Matrix(r, n, k)
	d, err := NewDense(shape, feat().MaxWidth, w)
	if err != nil {
		t.Fatal(err)
	}
	bias := make([]float32, k)
	for c := range bias {
		bias[c] = float32(c%9-4) * 1.5 // integers and halves: ties included
	}
	if err := d.SetThresholds(FoldBias(bias)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetAffine(NewAffineFromBias(bias)); err != nil {
		t.Fatal(err)
	}
	inVals := make([]float32, n)
	for i := range inVals {
		inVals[i] = r.PM1()
	}
	in := d.NewInput()
	bitpack.PackVectorInto(in, inVals)
	ref := make([]float32, k)
	baseline.DenseFloat(inVals, w, ref, 1)

	for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(2)} {
		acc := DenseOut{Acc: d.NewScratch()}
		d.Forward(in, acc, ec)
		logits := DenseOut{Acc: d.NewScratch(), Logits: make([]float32, k)}
		d.Forward(in, logits, ec)
		bits := DenseOut{Acc: d.NewScratch(), Bits: make([]uint64, bitpack.WordsFor(k)+1)}
		for i := range bits.Bits {
			bits.Bits[i] = ^uint64(0)
		}
		d.Forward(in, bits, ec)
		signs := bitpack.UnpackVector(bits.Bits, k)
		for c := range ref {
			if float32(acc.Acc[c]) != ref[c] {
				t.Fatalf("budget %d: Acc[%d] = %d, want %v", ec.Budget(), c, acc.Acc[c], ref[c])
			}
			if want := ref[c] + bias[c]; logits.Logits[c] != want {
				t.Fatalf("budget %d: Logits[%d] = %v, want %v", ec.Budget(), c, logits.Logits[c], want)
			}
			want := float32(-1)
			if ref[c]+bias[c] >= 0 {
				want = 1
			}
			if signs[c] != want {
				t.Fatalf("budget %d: Bits[%d] = %v, want %v", ec.Budget(), c, signs[c], want)
			}
		}
		if bits.Bits[bitpack.WordsFor(k)-1]>>(k%64) != 0 || bits.Bits[len(bits.Bits)-1] != 0 {
			t.Errorf("budget %d: Bits left dirty trailing lanes", ec.Budget())
		}
	}
}

func TestNewDenseErrors(t *testing.T) {
	r := workload.NewRNG(51)
	shape, _ := sched.InferFC(64, 4)
	if _, err := NewDense(shape, feat().MaxWidth, workload.PM1Matrix(r, 65, 4)); err == nil {
		t.Error("wrong weight rows: expected error")
	}
	if _, err := NewDensePacked(shape, feat().MaxWidth, bitpack.PackMatrixBT(workload.PM1Matrix(r, 64, 4), 2)); err == nil {
		t.Error("packed weights with the wrong words per row: expected error")
	}
}

// The old core-local parallelFor coverage test moved with the dispatcher
// to internal/exec (TestParallelForCoversRange); the operator-level
// threads-agree tests in this file keep pinning bit-exactness across
// budgets end to end.

// InferTestConv is a shared helper for the extension tests: a 3×3/1/1
// convolution geometry.
func InferTestConv(h, w, c, k int) (sched.ConvShape, error) {
	return sched.InferConv(h, w, c, k, 3, 3, 1, 1)
}
