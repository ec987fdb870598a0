//go:build !amd64 || purego

package kernels

// Width.Tier resolves every width to W64 in this build.

func sweepTier(_ Width, win, filters []uint64, acc []int32) { XorPopSweep64(win, filters, acc) }

func geBitsTier(_ Width, d, t []int32) uint64 { return geBits64(d, t) }

func popGeTier(_ Width, wins, f []uint64, t []int32, flip uint64, out []uint64, stride int) {
	popGe64(wins, f, t, flip, out, stride)
}
