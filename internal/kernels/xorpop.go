package kernels

import "math/bits"

// XorPop64 is the scalar kernel: one word per step, any length. The
// index loop over a with b pinned to the same length is a shape the
// compiler's bounds-check-elimination prover fully discharges.
func XorPop64(a, b []uint64) int {
	b = b[:len(a)] // pins len(b) == len(a) for bounds-check elimination; panics on mismatch
	acc := 0
	for i, av := range a {
		acc += bits.OnesCount64(av ^ b[i])
	}
	return acc
}

// XorPopRows64 is the scalar row-batched kernel (any segment length):
// the filter block is consumed by advancing filt past each row's segment.
func XorPopRows64(rows [][]uint64, filt []uint64) int {
	acc := 0
	for _, r := range rows {
		f := filt[:len(r)] // pins len(f) == len(r); panics if the filter block is short
		for i, v := range r {
			acc += bits.OnesCount64(v ^ f[i])
		}
		filt = filt[len(r):]
	}
	return acc
}

// OrInto computes dst[i] |= src[i]; binary max-pooling reduces windows
// with bitwise OR ("which is used to get the max of a sequence of ones
// and zeros", paper §III-C). Unrolled by 4 to match the vector tiers.
func OrInto(dst, src []uint64) {
	src = src[:len(dst)] // pins len(src) == len(dst); panics on mismatch
	for len(dst) >= 4 && len(src) >= 4 {
		dst[0] |= src[0]
		dst[1] |= src[1]
		dst[2] |= src[2]
		dst[3] |= src[3]
		dst = dst[4:]
		src = src[4:]
	}
	for len(dst) > 0 && len(src) > 0 {
		dst[0] |= src[0]
		dst = dst[1:]
		src = src[1:]
	}
}
