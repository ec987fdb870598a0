package kernels

import (
	"math"

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
	return &Epilogue{K: k, T: make([]int32, k), Flip: make([]uint64, bitpack.WordsFor(k)), Tier: W512.Tier()} //bitflow:alloc-ok constructor, runs once at operator build time, never per inference
}

// NewEpilogue compiles per-channel int32 thresholds and flip flags into
// the straight-compare form. t and flip must have equal length.
//
//bitflow:bce-ok constructor, runs once at operator build time, never per inference
func NewEpilogue(t []int32, flip []bool) *Epilogue {
	if len(t) != len(flip) {
		panicSize("NewEpilogue", "flip", len(flip), len(t))
	}
	e := NewSignEpilogue(len(t)) //bitflow:alloc-ok constructor, runs once at operator build time (inlined NewSignEpilogue allocations land on this line)
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
//
//bitflow:bce-ok constructor, runs once at operator build time, never per inference
func (e *Epilogue) ForPopcounts(n int32) *Epilogue {
	p := NewSignEpilogue(e.K) //bitflow:alloc-ok constructor, runs once at operator build time
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
	t = t[:len(d)] //bitflow:bce-ok preamble pin: proves len(t) == len(d), panics on mismatch
	var word uint64
	for c, v := range d {
		ge := uint64(((int64(v)-int64(t[c]))>>63)+1) & 1
		word |= ge << uint(c)
	}
	return word
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
	return dst[:len(e.Flip)] //bitflow:bce-ok once per call; cannot fail after the check above
}

// Pack writes the threshold bits of the K pre-activations d into dst,
// overwriting it and clearing trailing words — the fused replacement for
// a per-element threshold compare.
func (e *Epilogue) Pack(d []int32, dst []uint64) {
	out := e.words("Epilogue.Pack", d, dst)
	t := e.T
	for w, fl := range e.Flip {
		n := min(len(d), bitpack.WordBits)
		out[w] = geBitsTier(e.Tier, d[:n], t[:n]) ^ fl //bitflow:bce-ok once per 64-channel word; len(t) == len(d) by the check in words
		d, t = d[n:], t[n:]                            //bitflow:bce-ok once per 64-channel word
	}
	clear(dst[len(out):]) //bitflow:bce-ok once per call
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
		out[w] |= geBitsTier(e.Tier, d[:n], t[:n]) ^ fl //bitflow:bce-ok once per 64-channel word; len(t) == len(d) by the check in words
		d, t = d[n:], t[n:]                             //bitflow:bce-ok once per 64-channel word
	}
}
