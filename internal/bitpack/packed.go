// Package bitpack implements BitFlow's binarization and channel-dimension
// bit-packing (paper §III-B, Fig. 3, Table II/III).
//
// Values are encoded as in the paper: feature value +1 ↦ bit 1 and
// −1 ↦ bit 0. A tensor with C channels packs each pixel's channel vector
// into ⌈C/64⌉ (or more, if the kernel scheduler asks for width padding)
// 64-bit words, "pressing" the tensor by a factor of 32–64 and making the
// inner product of two channel vectors computable with XOR + popcount
// (Equation 1).
//
// Packed buffers can carry spatial margins so that zero padding is
// realized at zero cost (paper Fig. 5): the producer writes into the
// interior of a pre-allocated buffer whose margin words stay all-zero,
// which is exactly a border of −1 features, the value BNN bit-level
// padding actually pads.
package bitpack

import "fmt"

// WordBits is the number of channel lanes per packed word.
const WordBits = 64

// WordsFor returns the minimum number of 64-bit words needed to hold c
// channel bits.
func WordsFor(c int) int { return (c + WordBits - 1) / WordBits }

// Packed is a bit-packed NHWC activation tensor (batch 1).
//
// The buffer covers (H+2*MarginH)×(W+2*MarginW) pixels; the logical
// (interior) tensor is H×W. Each pixel owns WPP consecutive words; bits
// [0, C) of that word group are channel values, bits [C, WPP*64) are
// always zero ("pad extra zeros", paper §III-B rule 4).
type Packed struct {
	H, W int // interior (logical) spatial extent
	C    int // true channel count
	WPP  int // words per pixel, ≥ WordsFor(C)

	MarginH, MarginW int // margin pixels on each side (zero-cost padding)

	// RowStride is the number of words from one padded row to the next:
	// (W + 2*MarginW) * WPP.
	RowStride int

	// Words holds (H + 2*MarginH) * RowStride words. The interior pixel
	// (h, w) starts at word ((h+MarginH)*(W+2*MarginW) + (w+MarginW)) * WPP.
	Words []uint64
}

// NewPacked allocates a zeroed packed tensor with the given interior
// extent, channel count, words per pixel and margins.
func NewPacked(h, w, c, wpp, marginH, marginW int) *Packed {
	if wpp < WordsFor(c) {
		panic(fmt.Sprintf("bitpack: wpp %d < WordsFor(%d)=%d", wpp, c, WordsFor(c)))
	}
	if h < 0 || w < 0 || c < 0 || marginH < 0 || marginW < 0 {
		panic("bitpack: negative dimension")
	}
	paddedW := w + 2*marginW
	paddedH := h + 2*marginH
	return &Packed{
		H: h, W: w, C: c, WPP: wpp,
		MarginH: marginH, MarginW: marginW,
		RowStride: paddedW * wpp,
		Words:     make([]uint64, paddedH*paddedW*wpp),
	}
}

// PixelOffset returns the index in Words of interior pixel (h, w). h and w
// may range over [-MarginH, H+MarginH) and [-MarginW, W+MarginW): negative
// and overflowing coordinates address margin pixels.
func (p *Packed) PixelOffset(h, w int) int {
	return (h+p.MarginH)*p.RowStride + (w+p.MarginW)*p.WPP
}

// PixelWords returns the WPP-word slice of interior pixel (h, w), aliasing
// the underlying buffer. Margin pixels are addressable with negative /
// overflowing coordinates, as for PixelOffset.
func (p *Packed) PixelWords(h, w int) []uint64 {
	off := p.PixelOffset(h, w)
	return p.Words[off : off+p.WPP : off+p.WPP]
}

// MarginsAllZero reports whether every margin word is zero. The graph
// executor's invariant tests use this to prove that zero-cost padding
// margins are never clobbered.
//
//bitflow:keep test oracle: the margin invariant core and graph tests assert
func (p *Packed) MarginsAllZero() bool {
	paddedW := p.W + 2*p.MarginW
	paddedH := p.H + 2*p.MarginH
	for ph := 0; ph < paddedH; ph++ {
		for pw := 0; pw < paddedW; pw++ {
			interior := ph >= p.MarginH && ph < p.MarginH+p.H &&
				pw >= p.MarginW && pw < p.MarginW+p.W
			if interior {
				continue
			}
			off := (ph*paddedW + pw) * p.WPP
			for _, wd := range p.Words[off : off+p.WPP] {
				if wd != 0 {
					return false
				}
			}
		}
	}
	return true
}

// TailClean reports whether every interior pixel has zero bits in lanes
// [C, WPP*64). Kernels rely on this to keep Equation 1 exact under
// channel padding.
//
//bitflow:keep test oracle: the tail invariant core and graph tests assert
func (p *Packed) TailClean() bool {
	full := p.C / WordBits
	rem := p.C % WordBits
	for h := 0; h < p.H; h++ {
		for w := 0; w < p.W; w++ {
			words := p.PixelWords(h, w)
			if rem != 0 {
				if words[full]&^(uint64(1)<<uint(rem)-1) != 0 {
					return false
				}
			}
			for i := full + boolToInt(rem != 0); i < p.WPP; i++ {
				if words[i] != 0 {
					return false
				}
			}
		}
	}
	return true
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// String summarizes the packed tensor.
func (p *Packed) String() string {
	return fmt.Sprintf("Packed(%dx%dx%d wpp=%d margin=%dx%d)", p.H, p.W, p.C, p.WPP, p.MarginH, p.MarginW)
}
