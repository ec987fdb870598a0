package kernels

import (
	"math"
	"math/bits"

	"bitflow/internal/bitpack"
)

// This file is the fused binarization epilogue of the forward data-flow
// overhaul (Vorabbi et al., "Optimizing data-flow in Binary Neural
// Networks"): once the XOR+popcount conv itself is fast, materializing a
// pre-activation plane only to threshold, re-binarize, and re-pack it is
// the dominant cost. The Epilogue folds compare-threshold → set-bit (and,
// in the Or variants, the following max-pool) into the accumulate loop,
// so packed bits are written straight into the next layer's input buffer
// and no intermediate plane exists.
//
// The comparison is one signed test per channel. A folded batch-norm
// activation is
//
//	bit = d ≥ T[c]        (γ > 0)
//	bit = d ≤ T[c]        (γ < 0, "flipped")
//
// and d ≤ T is exactly ¬(d ≥ T+1), so a flipped channel stores T+1 and
// XORs its bit. T = MaxInt32 has no int32 successor, but d ≤ MaxInt32
// holds for every d, so that channel is stored as the straight,
// always-true threshold MinInt32 instead. With every threshold an int32
// the test vectorises: one VPCMPD decides 16 channels into a mask
// register (geBitsAVX512), VPCMPGTD + VMOVMSKPS eight (geBitsAVX2), and
// geBits64 is the branchless pure-Go form both are fuzzed against.

// Epilogue is a pre-compiled compare-threshold → set-bit pass over K
// output channels. Build one per operator at construction/SetThresholds
// time (never per inference) and share it freely: it is read-only.
type Epilogue struct {
	// K is the channel count; bits beyond K are cleared by Pack.
	K int
	// T holds the adjusted per-channel thresholds (see file comment).
	T []int32
	// Flip packs the per-channel inversion bits, one word per 64
	// channels, aligned with the packed output words.
	Flip []uint64
	// Tier is the resolved kernel tier (Width.Tier) Pack and PackOr run
	// at. The constructors pick the widest one the CPU executes.
	Tier Width
}

// NewSignEpilogue returns the plain Equation 3 sign activation (d ≥ 0)
// over k channels.
func NewSignEpilogue(k int) *Epilogue {
	return &Epilogue{K: k, T: make([]int32, k), Flip: make([]uint64, bitpack.WordsFor(k)), Tier: W512.Tier()}
}

// NewEpilogue compiles per-channel int32 thresholds and flip flags into
// the straight-compare form. t and flip must have equal length.
func NewEpilogue(t []int32, flip []bool) *Epilogue {
	if len(t) != len(flip) {
		panicSize("NewEpilogue", "flip", len(flip), len(t))
	}
	e := NewSignEpilogue(len(t))
	for c := range t {
		switch {
		case !flip[c]:
			e.T[c] = t[c]
		case t[c] == math.MaxInt32:
			e.T[c] = math.MinInt32 // d ≤ MaxInt32 always holds
		default:
			e.T[c] = t[c] + 1 // d ≤ T  ⇔  ¬(d ≥ T+1)
			e.Flip[c/bitpack.WordBits] |= 1 << uint(c%bitpack.WordBits)
		}
	}
	return e
}

// ForPopcounts returns the epilogue that gives, on raw XOR+popcount sums
// p, the bits e gives on the pre-activations d = n − 2p of Equation 1, so
// a conv can threshold its sweep's counts without converting them first:
// d ≥ T ⇔ p ≤ ⌊(n−T)/2⌋ ⇔ ¬(p ≥ ⌊(n−T)/2⌋+1) — each channel's
// threshold moves into the count domain and its flip bit inverts.
func (e *Epilogue) ForPopcounts(n int32) *Epilogue {
	p := NewSignEpilogue(e.K)
	p.Tier = e.Tier
	for c, t := range e.T {
		p.T[c] = int32((int64(n)-int64(t))>>1 + 1) // >> floors; |n − T| < 2³² keeps the result in int32
	}
	for w, fl := range e.Flip {
		p.Flip[w] = ^fl
	}
	if r := e.K % bitpack.WordBits; r != 0 {
		p.Flip[len(p.Flip)-1] &= 1<<uint(r) - 1 // bits beyond K stay 0
	}
	return p
}

// geBits64 returns the word whose bit c is d[c] ≥ t[c], for up to 64
// channels: the pure-Go tier of the threshold compare.
func geBits64(d, t []int32) uint64 {
	t = t[:len(d)] // pins len(t) == len(d); panics on mismatch
	var word uint64
	for c, v := range d {
		ge := uint64(((int64(v)-int64(t[c]))>>63)+1) & 1
		word |= ge << uint(c)
	}
	return word
}

// popGe64 is popGeTier on every tier without a vector popcount: for
// each window wins[i], out[i·stride] gets bit c set when
// popcount(wins[i] XOR f[c]) ≥ t[c], for up to 64 filters, XORed with
// flip — one XOR, one scalar popcount and geBits64's branch-free compare
// per filter.
func popGe64(wins, f []uint64, t []int32, flip uint64, out []uint64, stride int) {
	t = t[:len(f)] // pins len(t) == len(f); panics on mismatch
	for i, w := range wins {
		var word uint64
		for c, fc := range f {
			ge := uint64(((int64(bits.OnesCount64(w^fc))-int64(t[c]))>>63)+1) & 1
			word |= ge << uint(c)
		}
		out[i*stride] = word ^ flip
	}
}

// words validates one Pack/PackOr call and returns the WordsFor(K)
// destination words the threshold bits land in.
func (e *Epilogue) words(fn string, d []int32, dst []uint64) []uint64 {
	if len(d) != e.K {
		panicSize(fn, "d", len(d), e.K)
	}
	if len(e.T) != e.K {
		panicSize(fn, "T", len(e.T), e.K)
	}
	if len(dst) < len(e.Flip) {
		panicSize(fn, "dst", len(dst), len(e.Flip))
	}
	return dst[:len(e.Flip)]
}

// Pack writes the threshold bits of the K pre-activations d into dst,
// overwriting it and clearing trailing words — the fused replacement for
// a per-element threshold compare.
func (e *Epilogue) Pack(d []int32, dst []uint64) {
	out := e.words("Epilogue.Pack", d, dst)
	t := e.T
	for w, fl := range e.Flip {
		n := min(len(d), bitpack.WordBits)
		out[w] = geBitsTier(e.Tier, d[:n], t[:n]) ^ fl // len(t) == len(d) by the check in words
		d, t = d[n:], t[n:]
	}
	clear(dst[len(out):])
}

// PackOr ORs the threshold bits of d into dst without clearing — the
// pooled accumulation step (max over sign bits is OR). dst must span at
// least WordsFor(K) words and already hold a previous window position's
// bits (or zeros).
func (e *Epilogue) PackOr(d []int32, dst []uint64) {
	out := e.words("Epilogue.PackOr", d, dst)
	t := e.T
	for w, fl := range e.Flip {
		n := min(len(d), bitpack.WordBits)
		out[w] |= geBitsTier(e.Tier, d[:n], t[:n]) ^ fl // len(t) == len(d) by the check in words
		d, t = d[n:], t[n:]
	}
}

// SweepBits is Sweep of each one-word window wins[i] over K = e.K
// one-word filters fused with the threshold compare, on a count-domain
// epilogue (ForPopcounts), for a run of windows at once: word w of window
// i's bits, bits[i·W+w] with W = WordsFor(K), holds bit c − 64w set when
// popcount(wins[i] XOR filters[c]) ≥ T[c], inverted by the channel's flip
// bit, for the channels c of that word — what Pack writes from the
// window's counts, with no int32 count stored. filters holds exactly K
// words, and bits at least len(wins)·W.
func (e *Epilogue) SweepBits(wins, filters, bits []uint64) {
	if len(filters) != e.K {
		panicSize("Epilogue.SweepBits", "filters", len(filters), e.K)
	}
	if len(e.T) != e.K {
		panicSize("Epilogue.SweepBits", "T", len(e.T), e.K)
	}
	W := len(e.Flip)
	if len(wins) == 0 {
		return
	}
	if len(bits) < len(wins)*W {
		panicSize("Epilogue.SweepBits", "bits", len(bits), len(wins)*W)
	}
	t := e.T
	for w, fl := range e.Flip {
		n := min(len(filters), bitpack.WordBits)
		popGeTier(e.Tier, wins, filters[:n], t[:n], fl, bits[w:], W) // len(t) == len(filters) by the checks above
		filters, t = filters[n:], t[n:]
	}
}
