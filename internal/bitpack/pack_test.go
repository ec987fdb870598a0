package bitpack

import (
	"fmt"
	"testing"
	"testing/quick"

	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

func TestWordsFor(t *testing.T) {
	cases := map[int]int{1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3, 512: 8}
	for c, want := range cases {
		if got := WordsFor(c); got != want {
			t.Errorf("WordsFor(%d) = %d want %d", c, got, want)
		}
	}
}

func TestPackUnpackRoundtrip(t *testing.T) {
	r := workload.NewRNG(20)
	for _, tc := range []struct{ h, w, c, wpp int }{
		{1, 1, 1, 1}, {3, 4, 64, 1}, {2, 2, 100, 2}, {5, 3, 3, 1}, {4, 4, 512, 8},
	} {
		in := workload.PM1Tensor(r, tc.h, tc.w, tc.c)
		p := PackTensor(in, tc.wpp, 0, 0)
		back := Unpack(p)
		if !in.Equal(back) {
			t.Errorf("roundtrip %dx%dx%d wpp=%d mismatch", tc.h, tc.w, tc.c, tc.wpp)
		}
		if !p.TailClean() {
			t.Errorf("tail not clean for %dx%dx%d wpp=%d", tc.h, tc.w, tc.c, tc.wpp)
		}
	}
}

// TestPackRoundtripQuick is the property-based version over arbitrary
// small shapes and margins.
func TestPackRoundtripQuick(t *testing.T) {
	f := func(seed uint64, hh, ww, cc, mm uint8) bool {
		h := int(hh)%6 + 1
		w := int(ww)%6 + 1
		c := int(cc)%130 + 1
		margin := int(mm) % 3
		r := workload.NewRNG(seed)
		in := workload.PM1Tensor(r, h, w, c)
		p := PackTensor(in, WordsFor(c)+int(mm)%2, margin, margin)
		if !Unpack(p).Equal(in) {
			return false
		}
		return p.TailClean() && p.MarginsAllZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Bit reports channel bit c of interior pixel (h, w).
func (p *Packed) Bit(h, w, c int) uint64 {
	words := p.PixelWords(h, w)
	return (words[c/WordBits] >> (uint(c) % WordBits)) & 1
}

// SetBit sets channel bit c of interior pixel (h, w) to v (0 or 1).
func (p *Packed) SetBit(h, w, c int, v uint64) {
	words := p.PixelWords(h, w)
	mask := uint64(1) << (uint(c) % WordBits)
	if v != 0 {
		words[c/WordBits] |= mask
	} else {
		words[c/WordBits] &^= mask
	}
}

// Row returns the word slice covering the full padded row that contains
// interior row h, starting at the row's leftmost margin pixel.
func (p *Packed) Row(h int) []uint64 {
	off := (h + p.MarginH) * p.RowStride
	return p.Words[off : off+p.RowStride : off+p.RowStride]
}

// Zero clears the whole buffer, margins included.
func (p *Packed) Zero() { clear(p.Words) }

// SameShape reports whether p and q agree in every structural field.
func (p *Packed) SameShape(q *Packed) bool {
	return p.H == q.H && p.W == q.W && p.C == q.C && p.WPP == q.WPP &&
		p.MarginH == q.MarginH && p.MarginW == q.MarginW
}

// PackPixel binarizes vals and writes them into interior pixel (h, w) of
// p; len(vals) must equal p.C.
func (p *Packed) PackPixel(h, w int, vals []float32) {
	if len(vals) != p.C {
		panic(fmt.Sprintf("bitpack: PackPixel got %d values, want C=%d", len(vals), p.C))
	}
	packChannels(p.PixelWords(h, w), vals)
}

func TestSignSemantics(t *testing.T) {
	// Paper Equation 3: x >= 0 ↦ +1 (bit 1), x < 0 ↦ −1 (bit 0).
	// Zero must binarize to +1.
	in := tensor.New(1, 1, 3)
	in.Set(0, 0, 0, 0)
	in.Set(0, 0, 1, -0.5)
	in.Set(0, 0, 2, 2.5)
	p := PackTensor(in, 1, 0, 0)
	if p.Bit(0, 0, 0) != 1 {
		t.Error("sign(0) must pack to bit 1")
	}
	if p.Bit(0, 0, 1) != 0 {
		t.Error("sign(-0.5) must pack to bit 0")
	}
	if p.Bit(0, 0, 2) != 1 {
		t.Error("sign(2.5) must pack to bit 1")
	}
}

func TestPackTensorIntoMarginsUntouched(t *testing.T) {
	r := workload.NewRNG(21)
	in := workload.PM1Tensor(r, 3, 3, 64)
	p := NewPacked(3, 3, 64, 1, 1, 1)
	PackTensorInto(in, p)
	if !p.MarginsAllZero() {
		t.Error("margins dirtied by PackTensorInto")
	}
	if !Unpack(p).Equal(in) {
		t.Error("interior mismatch")
	}
}

func TestSetBitAndBit(t *testing.T) {
	p := NewPacked(2, 2, 70, 2, 0, 0)
	p.SetBit(1, 1, 69, 1)
	if p.Bit(1, 1, 69) != 1 {
		t.Error("SetBit(1) lost")
	}
	p.SetBit(1, 1, 69, 0)
	if p.Bit(1, 1, 69) != 0 {
		t.Error("SetBit(0) lost")
	}
}

func TestPackPixel(t *testing.T) {
	p := NewPacked(1, 2, 65, 2, 0, 0)
	vals := make([]float32, 65)
	for i := range vals {
		if i%3 == 0 {
			vals[i] = -1
		} else {
			vals[i] = 1
		}
	}
	p.PackPixel(0, 1, vals)
	for c := 0; c < 65; c++ {
		want := uint64(1)
		if c%3 == 0 {
			want = 0
		}
		if p.Bit(0, 1, c) != want {
			t.Fatalf("bit %d = %d want %d", c, p.Bit(0, 1, c), want)
		}
	}
	if !p.TailClean() {
		t.Error("tail dirty after PackPixel")
	}
}

func TestNewPackedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"wpp too small": func() { NewPacked(1, 1, 65, 1, 0, 0) },
		"negative dim":  func() { NewPacked(-1, 1, 1, 1, 0, 0) },
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

func TestMarginsAllZeroDetectsDirt(t *testing.T) {
	p := NewPacked(2, 2, 64, 1, 1, 1)
	if !p.MarginsAllZero() {
		t.Fatal("fresh buffer should have zero margins")
	}
	// Dirty a margin pixel via negative coordinates.
	p.PixelWords(-1, 0)[0] = 1
	if p.MarginsAllZero() {
		t.Error("dirty margin not detected")
	}
}

func TestTailCleanDetectsDirt(t *testing.T) {
	p := NewPacked(1, 1, 65, 2, 0, 0)
	if !p.TailClean() {
		t.Fatal("fresh buffer should have clean tails")
	}
	p.PixelWords(0, 0)[1] |= 1 << 5 // lane 69 ≥ C=65
	if p.TailClean() {
		t.Error("dirty tail not detected")
	}
}
