//go:build !amd64 || purego

package kernels

// Width.Tier resolves every width to W64 in this build.

func sweepTier(_ Width, win, filters []uint64, acc []int32) { XorPopSweep64(win, filters, acc) }

func geBitsTier(_ Width, d, t []int32) uint64 { return geBits64(d, t) }
