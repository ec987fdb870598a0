package bitpack

import (
	"fmt"

	"bitflow/internal/tensor"
)

// signBit returns 1 for v >= 0 and 0 otherwise — the paper's activation
// function (Equation 3) expressed at the bit level.
func signBit(v float32) uint64 {
	if v >= 0 {
		return 1
	}
	return 0
}

// packChannels binarizes and packs one C-length channel vector into dst
// (len ≥ WordsFor(C)); trailing lanes of the last touched word and any
// remaining words of dst are cleared. This is the Go analogue of the
// paper's bit64_t/bit64_u bit-field trick (Table II): build the word with
// shifts instead of per-bit memory writes.
func packChannels(dst []uint64, src []float32) {
	n := len(src)
	full := n / WordBits
	i := 0
	for w := 0; w < full; w++ {
		var word uint64
		// Unrolled by 8: the compiler keeps `word` in a register and the
		// eight comparisons pipeline, mirroring the fused binarization
		// the paper performs with bit fields.
		for b := 0; b < WordBits; b += 8 {
			word |= signBit(src[i]) << uint(b)
			word |= signBit(src[i+1]) << uint(b+1)
			word |= signBit(src[i+2]) << uint(b+2)
			word |= signBit(src[i+3]) << uint(b+3)
			word |= signBit(src[i+4]) << uint(b+4)
			word |= signBit(src[i+5]) << uint(b+5)
			word |= signBit(src[i+6]) << uint(b+6)
			word |= signBit(src[i+7]) << uint(b+7)
			i += 8
		}
		dst[w] = word
	}
	if rem := n % WordBits; rem != 0 {
		var word uint64
		for b := 0; b < rem; b++ {
			word |= signBit(src[i]) << uint(b)
			i++
		}
		dst[full] = word
		full++
	}
	for w := full; w < len(dst); w++ {
		dst[w] = 0
	}
}

// PackTensor binarizes t (sign) and packs it along the channel dimension
// into a new Packed buffer with the given words-per-pixel and margins.
// wpp must be at least WordsFor(t.C); margins may be zero.
func PackTensor(t *tensor.Tensor, wpp, marginH, marginW int) *Packed {
	p := NewPacked(t.H, t.W, t.C, wpp, marginH, marginW)
	PackTensorInto(t, p)
	return p
}

// PackTensorInto binarizes t and packs it into the interior of p, which
// must match t's H, W, C. Margin words are left untouched (they are zero
// for a freshly allocated or Zero()ed buffer).
func PackTensorInto(t *tensor.Tensor, p *Packed) {
	if t.H != p.H || t.W != p.W || t.C != p.C {
		panic(fmt.Sprintf("bitpack: PackTensorInto shape mismatch %v vs %v", t, p))
	}
	for h := 0; h < t.H; h++ {
		for w := 0; w < t.W; w++ {
			packChannels(p.PixelWords(h, w), t.Pixel(h, w))
		}
	}
}

// Unpack expands p's interior back into a ±1-valued float tensor:
// bit 1 ↦ +1, bit 0 ↦ −1. Only the true C channels are produced.
//
//bitflow:keep test oracle: bitpack, core and graph tests read packed tensors back through it
func Unpack(p *Packed) *tensor.Tensor {
	t := tensor.New(p.H, p.W, p.C)
	for h := 0; h < p.H; h++ {
		for w := 0; w < p.W; w++ {
			words := p.PixelWords(h, w)
			px := t.Pixel(h, w)
			for c := 0; c < p.C; c++ {
				if words[c/WordBits]>>(uint(c)%WordBits)&1 == 1 {
					px[c] = 1
				} else {
					px[c] = -1
				}
			}
		}
	}
	return t
}
