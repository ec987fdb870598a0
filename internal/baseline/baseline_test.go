package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"bitflow/internal/kernels"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

func matMaxAbsDiff(a, b *tensor.Matrix) float64 {
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestSgemmMatchesNaive(t *testing.T) {
	r := workload.NewRNG(60)
	for _, tc := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 4, 5}, {65, 70, 33}, {64, 256, 64}, {100, 300, 17},
	} {
		a := workload.RandMatrix(r, tc.m, tc.k)
		b := workload.RandMatrix(r, tc.k, tc.n)
		got := Sgemm(a, b)
		want := tensor.MatMul(a, b)
		if d := matMaxAbsDiff(got, want); d > 1e-3 {
			t.Errorf("%+v: sgemm max diff %g", tc, d)
		}
	}
}

func TestSgemmParallelMatchesSerial(t *testing.T) {
	r := workload.NewRNG(61)
	a := workload.RandMatrix(r, 90, 120)
	b := workload.RandMatrix(r, 120, 40)
	want := Sgemm(a, b)
	for _, threads := range []int{1, 2, 4, 16, 200} {
		got := SgemmParallel(a, b, threads)
		if d := matMaxAbsDiff(got, want); d != 0 {
			t.Errorf("threads=%d: max diff %g", threads, d)
		}
	}
}

func TestSgemmPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sgemm mismatch did not panic")
		}
	}()
	Sgemm(tensor.NewMatrix(2, 3), tensor.NewMatrix(4, 5))
}

func TestIm2colSmallExample(t *testing.T) {
	// 3×3 single-channel input, 2×2 kernel, stride 1, no pad — the
	// Fig. 2b construction. Rows are output positions, columns the
	// flattened window.
	in := tensor.FromSlice(3, 3, 1, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	u := Im2col(in, 2, 2, 1, 0, 0)
	if u.Rows != 4 || u.Cols != 4 {
		t.Fatalf("unfolded shape %v", u)
	}
	want := [][]float32{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for r, row := range want {
		for c, v := range row {
			if u.At(r, c) != v {
				t.Errorf("u[%d][%d] = %v want %v", r, c, u.At(r, c), v)
			}
		}
	}
}

func TestIm2colPadValue(t *testing.T) {
	in := tensor.FromSlice(1, 1, 1, []float32{5})
	u := Im2col(in, 3, 3, 1, 1, -1)
	if u.Rows != 1 || u.Cols != 9 {
		t.Fatalf("unfolded shape %v", u)
	}
	for i := 0; i < 9; i++ {
		want := float32(-1)
		if i == 4 { // center tap
			want = 5
		}
		if u.At(0, i) != want {
			t.Errorf("u[0][%d] = %v want %v", i, u.At(0, i), want)
		}
	}
}

func TestConvIm2colMatchesDirect(t *testing.T) {
	r := workload.NewRNG(62)
	for _, tc := range []struct{ h, w, c, k, kh, kw, stride, pad int }{
		{5, 5, 3, 2, 3, 3, 1, 1},
		{6, 4, 8, 3, 3, 3, 1, 0},
		{8, 8, 4, 2, 2, 2, 2, 0},
		{7, 7, 16, 5, 5, 5, 1, 2},
	} {
		in := workload.RandTensor(r, tc.h, tc.w, tc.c)
		f := workload.RandFilter(r, tc.k, tc.kh, tc.kw, tc.c)
		direct := ConvDirect(in, f, tc.stride, tc.pad, 0, 1)
		im2col := ConvIm2col(in, f, tc.stride, tc.pad, 0, 2)
		if d := direct.MaxAbsDiff(im2col); d > 1e-3 {
			t.Errorf("%+v: im2col vs direct max diff %g", tc, d)
		}
	}
}

func TestConvDirectThreadsAgree(t *testing.T) {
	r := workload.NewRNG(63)
	in := workload.RandTensor(r, 9, 9, 8)
	f := workload.RandFilter(r, 4, 3, 3, 8)
	want := ConvDirect(in, f, 1, 1, 0, 1)
	for _, threads := range []int{2, 4, 100} {
		got := ConvDirect(in, f, 1, 1, 0, threads)
		if !got.Equal(want) {
			t.Errorf("threads=%d differs", threads)
		}
	}
}

func TestConvDirectPadValue(t *testing.T) {
	// With an all-ones 3×3 filter over a single 1-valued pixel and
	// padVal −1, every output tap outside the image contributes −1.
	in := tensor.FromSlice(1, 1, 1, []float32{1})
	f := tensor.NewFilter(1, 3, 3, 1)
	for i := range f.Data {
		f.Data[i] = 1
	}
	out := ConvDirect(in, f, 1, 1, -1, 1)
	if out.H != 1 || out.W != 1 {
		t.Fatalf("out shape %v", out)
	}
	// 8 taps at −1, one at +1 → −7.
	if out.At(0, 0, 0) != -7 {
		t.Errorf("padVal conv = %v want -7", out.At(0, 0, 0))
	}
}

func TestBinaryIm2colConvMatchesDirect(t *testing.T) {
	r := workload.NewRNG(64)
	for _, tc := range []struct{ h, w, c, k, pad int }{
		{5, 5, 64, 4, 1},
		{6, 6, 3, 2, 1},
		{4, 4, 128, 3, 0},
		{5, 7, 100, 2, 1},
	} {
		in := workload.PM1Tensor(r, tc.h, tc.w, tc.c)
		f := workload.PM1Filter(r, tc.k, 3, 3, tc.c)
		bc := NewBinaryIm2colConv(f, 1, tc.pad)
		got := bc.Forward(in, 2)
		want := ConvDirect(in, f, 1, tc.pad, -1, 1)
		if !got.Equal(want) {
			t.Errorf("%+v: binary im2col != direct (max diff %g)", tc, got.MaxAbsDiff(want))
		}
	}
}

// TestBinaryIm2colQuick: the unoptimized baseline agrees with the float
// reference as a property.
func TestBinaryIm2colQuick(t *testing.T) {
	f := func(seed uint64, hh, cc, kk uint8) bool {
		h := int(hh)%5 + 3
		c := int(cc)%80 + 1
		k := int(kk)%4 + 1
		r := workload.NewRNG(seed)
		in := workload.PM1Tensor(r, h, h, c)
		filt := workload.PM1Filter(r, k, 3, 3, c)
		bc := NewBinaryIm2colConv(filt, 1, 1)
		return bc.Forward(in, 1).Equal(ConvDirect(in, filt, 1, 1, -1, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinaryIm2colWiderKernelStillCorrect(t *testing.T) {
	// The ablation variant installs the widest kernel tier; results must
	// be unchanged (3*3*128 = 1152 bits = 18 words, a vector tail).
	r := workload.NewRNG(65)
	in := workload.PM1Tensor(r, 5, 5, 128)
	f := workload.PM1Filter(r, 3, 3, 3, 128)
	bc := NewBinaryIm2colConv(f, 1, 1)
	want := bc.Forward(in, 1)
	bc.Kernel = kernels.ForWidth(kernels.W512)
	got := bc.Forward(in, 1)
	if !got.Equal(want) {
		t.Error("wider kernel changed baseline results")
	}
}

func TestBinaryIm2colWords(t *testing.T) {
	// 3·3·64 = 576 bits = 9 words: not a multiple of 2/4/8 — the
	// paper's "N won't be multiple of 32 in most cases" observation at
	// word granularity.
	f := tensor.NewFilter(2, 3, 3, 64)
	bc := NewBinaryIm2colConv(f, 1, 1)
	if bc.Words() != 9 {
		t.Errorf("Words = %d want 9", bc.Words())
	}
}

func TestDenseFloat(t *testing.T) {
	r := workload.NewRNG(66)
	n, k := 37, 11
	w := workload.RandMatrix(r, n, k)
	in := make([]float32, n)
	for i := range in {
		in[i] = 2*r.Float32() - 1
	}
	want := make([]float32, k)
	for ki := 0; ki < k; ki++ {
		var acc float32
		for ni := 0; ni < n; ni++ {
			acc += in[ni] * w.At(ni, ki)
		}
		want[ki] = acc
	}
	for _, threads := range []int{1, 2, 5} {
		got := make([]float32, k)
		DenseFloat(in, w, got, threads)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Errorf("threads=%d out[%d] = %v want %v", threads, i, got[i], want[i])
			}
		}
	}
}

func TestMaxPoolFloat(t *testing.T) {
	in := tensor.FromSlice(2, 2, 2, []float32{
		1, -5, 2, 8,
		-3, 7, 4, -1,
	})
	out := MaxPoolFloat(in, 2, 2, 2, 1)
	if out.H != 1 || out.W != 1 || out.C != 2 {
		t.Fatalf("pool shape %v", out)
	}
	if out.At(0, 0, 0) != 4 || out.At(0, 0, 1) != 8 {
		t.Errorf("pool = %v,%v want 4,8", out.At(0, 0, 0), out.At(0, 0, 1))
	}
}

func TestMaxPoolFloatOverlapping(t *testing.T) {
	r := workload.NewRNG(67)
	in := workload.RandTensor(r, 5, 5, 3)
	out := MaxPoolFloat(in, 3, 3, 1, 2)
	if out.H != 3 || out.W != 3 {
		t.Fatalf("pool shape %v", out)
	}
	// Spot-check center window.
	for c := 0; c < 3; c++ {
		want := float32(math.Inf(-1))
		for i := 1; i <= 3; i++ {
			for j := 1; j <= 3; j++ {
				if v := in.At(i, j, c); v > want {
					want = v
				}
			}
		}
		if out.At(1, 1, c) != want {
			t.Errorf("center pool c=%d = %v want %v", c, out.At(1, 1, c), want)
		}
	}
}

func TestFilterMatrix(t *testing.T) {
	r := workload.NewRNG(68)
	f := workload.RandFilter(r, 3, 2, 2, 5)
	w := FilterMatrix(f)
	if w.Rows != 3 || w.Cols != 20 {
		t.Fatalf("filter matrix %v", w)
	}
	if w.At(2, 7) != f.Data[2*20+7] {
		t.Error("row layout mismatch")
	}
}
