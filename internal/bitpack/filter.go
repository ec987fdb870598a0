package bitpack

import (
	"fmt"

	"bitflow/internal/tensor"
)

// PackedFilter is a bit-packed bank of K convolution filters, packed along
// the channel dimension like activations so that PressedConv can XOR a
// filter tap directly against a pixel's channel words.
//
// Layout: filter tap (k, i, j) owns WPP consecutive words starting at
// ((k*KH+i)*KW+j)*WPP. Within a filter, taps are contiguous: the KH*KW*WPP
// words of filter k form one dense block, which the conv inner loop walks
// linearly.
type PackedFilter struct {
	K, KH, KW int
	C         int // true channel count
	WPP       int // words per tap, ≥ WordsFor(C)
	Words     []uint64
}

// NewPackedFilter allocates a zeroed packed filter bank.
func NewPackedFilter(k, kh, kw, c, wpp int) *PackedFilter {
	if wpp < WordsFor(c) {
		panic(fmt.Sprintf("bitpack: filter wpp %d < WordsFor(%d)=%d", wpp, c, WordsFor(c)))
	}
	return &PackedFilter{
		K: k, KH: kh, KW: kw, C: c, WPP: wpp,
		Words: make([]uint64, k*kh*kw*wpp),
	}
}

// PackFilter binarizes f (sign) and packs it along the channel dimension.
// Filters are constant during inference, so the paper performs this once
// at network initialization (network-level optimization, §IV).
func PackFilter(f *tensor.Filter, wpp int) *PackedFilter {
	pf := NewPackedFilter(f.K, f.KH, f.KW, f.C, wpp)
	for k := 0; k < f.K; k++ {
		for i := 0; i < f.KH; i++ {
			for j := 0; j < f.KW; j++ {
				packChannels(pf.TapWords(k, i, j), f.Tap(k, i, j))
			}
		}
	}
	return pf
}

// TapWords returns the WPP-word slice of filter k's tap (i, j), aliasing
// the underlying buffer.
func (pf *PackedFilter) TapWords(k, i, j int) []uint64 {
	off := ((k*pf.KH+i)*pf.KW + j) * pf.WPP
	return pf.Words[off : off+pf.WPP : off+pf.WPP]
}

// UnpackFilter expands pf back into a ±1-valued float filter bank.
//
//bitflow:keep test oracle: bitpack and core tests read packed filters back through it
func UnpackFilter(pf *PackedFilter) *tensor.Filter {
	f := tensor.NewFilter(pf.K, pf.KH, pf.KW, pf.C)
	for k := 0; k < pf.K; k++ {
		for i := 0; i < pf.KH; i++ {
			for j := 0; j < pf.KW; j++ {
				words := pf.TapWords(k, i, j)
				tap := f.Tap(k, i, j)
				for c := 0; c < pf.C; c++ {
					if words[c/WordBits]>>(uint(c)%WordBits)&1 == 1 {
						tap[c] = 1
					} else {
						tap[c] = -1
					}
				}
			}
		}
	}
	return f
}

// String summarizes the packed filter bank.
func (pf *PackedFilter) String() string {
	return fmt.Sprintf("PackedFilter(K=%d %dx%dx%d wpp=%d)", pf.K, pf.KH, pf.KW, pf.C, pf.WPP)
}
