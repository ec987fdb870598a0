package tensor

import (
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d", x.Len())
	}
	x.Set(1, 2, 3, 7)
	if x.At(1, 2, 3) != 7 {
		t.Error("At/Set roundtrip failed")
	}
	if x.Data[(1*3+2)*4+3] != 7 {
		t.Error("NHWC linear index wrong")
	}
	px := x.Pixel(1, 2)
	if len(px) != 4 || px[3] != 7 {
		t.Error("Pixel slice wrong")
	}
	px[0] = 9
	if x.At(1, 2, 0) != 9 {
		t.Error("Pixel must alias storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := New(1, 1, 2)
	x.Set(0, 0, 0, 5)
	y := x.Clone()
	y.Set(0, 0, 0, 6)
	if x.At(0, 0, 0) != 5 {
		t.Error("Clone shares storage")
	}
}

func TestSign(t *testing.T) {
	x := FromSlice(1, 1, 4, []float32{-2, 0, 3, -0.0001})
	s := x.Sign()
	want := []float32{-1, 1, 1, -1}
	for i, w := range want {
		if s.Data[i] != w {
			t.Errorf("Sign[%d] = %v want %v", i, s.Data[i], w)
		}
	}
}

func TestPadSpatial(t *testing.T) {
	x := New(2, 2, 1)
	x.Fill(3)
	p := x.PadSpatial(1, -1)
	if p.H != 4 || p.W != 4 {
		t.Fatalf("padded shape %v", p)
	}
	if p.At(0, 0, 0) != -1 || p.At(3, 3, 0) != -1 {
		t.Error("margin not padded")
	}
	if p.At(1, 1, 0) != 3 || p.At(2, 2, 0) != 3 {
		t.Error("interior not copied")
	}
	// p == 0 must be a plain copy.
	q := x.PadSpatial(0, -1)
	if !q.Equal(x) {
		t.Error("PadSpatial(0) != identity")
	}
}

func TestPadChannels(t *testing.T) {
	x := FromSlice(1, 2, 2, []float32{1, 2, 3, 4})
	p := x.PadChannels(5, -1)
	if p.C != 5 {
		t.Fatalf("C = %d", p.C)
	}
	if p.At(0, 1, 0) != 3 || p.At(0, 1, 1) != 4 {
		t.Error("channels not copied")
	}
	if p.At(0, 0, 4) != -1 {
		t.Error("pad channel wrong")
	}
}

func TestEqualAndMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 1, 3, []float32{1, 2.5, 3})
	if a.Equal(b) {
		t.Error("Equal on different data")
	}
	if d := a.MaxAbsDiff(b); d != 0.5 {
		t.Errorf("MaxAbsDiff = %v", d)
	}
	if !a.Equal(a.Clone()) {
		t.Error("Equal on clone failed")
	}
	c := New(1, 1, 2)
	if a.Equal(c) {
		t.Error("Equal across shapes")
	}
}

func TestNCHWRoundtrip(t *testing.T) {
	f := func(seed int64, hh, ww, cc uint8) bool {
		h := int(hh)%5 + 1
		w := int(ww)%5 + 1
		c := int(cc)%5 + 1
		x := New(h, w, c)
		s := seed
		for i := range x.Data {
			s = s*6364136223846793005 + 1442695040888963407
			x.Data[i] = float32(s % 97)
		}
		y := FromNCHW(h, w, c, x.ToNCHW())
		return y.Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterIndexing(t *testing.T) {
	f := NewFilter(2, 3, 3, 4)
	f.Set(1, 2, 0, 3, 8)
	if f.At(1, 2, 0, 3) != 8 {
		t.Error("filter At/Set roundtrip")
	}
	tap := f.Tap(1, 2, 0)
	if tap[3] != 8 {
		t.Error("Tap slice wrong")
	}
}

// FilterFromKCHW builds a Filter (K,KH,KW,C innermost-C layout) from data
// laid out as K,C,KH,KW (the common framework filter layout).
func FilterFromKCHW(k, c, kh, kw int, data []float32) *Filter {
	if len(data) != k*c*kh*kw {
		panic("tensor: FilterFromKCHW length mismatch")
	}
	out := NewFilter(k, kh, kw, c)
	for ki := 0; ki < k; ki++ {
		for ci := 0; ci < c; ci++ {
			for i := 0; i < kh; i++ {
				for j := 0; j < kw; j++ {
					out.Set(ki, i, j, ci, data[((ki*c+ci)*kh+i)*kw+j])
				}
			}
		}
	}
	return out
}

func TestFilterFromKCHW(t *testing.T) {
	// K=1, C=2, KH=1, KW=2 in KCHW order: [c0j0, c0j1, c1j0, c1j1]
	f := FilterFromKCHW(1, 2, 1, 2, []float32{10, 11, 20, 21})
	if f.At(0, 0, 0, 0) != 10 || f.At(0, 0, 1, 0) != 11 {
		t.Error("channel 0 misplaced")
	}
	if f.At(0, 0, 0, 1) != 20 || f.At(0, 0, 1, 1) != 21 {
		t.Error("channel 1 misplaced")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 4)
	if m.At(1, 2) != 4 {
		t.Error("matrix At/Set")
	}
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 || mt.At(2, 1) != 4 {
		t.Error("transpose wrong")
	}
}

func TestMatMul(t *testing.T) {
	a := MatrixFromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := MatrixFromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("MatMul[%d] = %v want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul mismatch did not panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative tensor":   func() { New(-1, 1, 1) },
		"FromSlice length":  func() { FromSlice(2, 2, 2, make([]float32, 7)) },
		"negative filter":   func() { NewFilter(1, -1, 1, 1) },
		"negative matrix":   func() { NewMatrix(-1, 2) },
		"PadChannels small": func() { New(1, 1, 4).PadChannels(2, 0) },
	} {
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
