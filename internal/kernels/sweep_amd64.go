//go:build amd64 && !purego

package kernels

//go:noescape
func sweepAVX512(win, filters []uint64, acc []int32)

//go:noescape
func sweepAVX2(win, filters []uint64, acc []int32)

//go:noescape
func geBitsAVX512(d, t []int32) uint64

//go:noescape
func geBitsAVX2(d, t []int32) uint64

//go:noescape
func popGeAVX512(wins, f []uint64, t []int32, flip uint64, out []uint64, stride int)

// sweepTier runs the sweep of an already-resolved tier (Width.Tier). The
// dispatch is a static switch rather than a function value so callers'
// window and accumulator scratch can stay on their stacks.
func sweepTier(tier Width, win, filters []uint64, acc []int32) {
	switch tier {
	case W512:
		sweepAVX512(win, filters, acc)
	case W256:
		sweepAVX2(win, filters, acc)
	default:
		XorPopSweep64(win, filters, acc)
	}
}

// geBitsTier is geBits64 on an already-resolved tier.
func geBitsTier(tier Width, d, t []int32) uint64 {
	switch tier {
	case W512:
		return geBitsAVX512(d, t)
	case W256:
		return geBitsAVX2(d, t)
	}
	return geBits64(d, t)
}

// popGeTier is SweepBits' compare on an already-resolved tier: the fused
// AVX-512 kernel, or the scalar one on the tiers without a vector
// popcount.
func popGeTier(tier Width, wins, f []uint64, t []int32, flip uint64, out []uint64, stride int) {
	if tier == W512 {
		popGeAVX512(wins, f, t, flip, out, stride)
		return
	}
	popGe64(wins, f, t, flip, out, stride)
}
