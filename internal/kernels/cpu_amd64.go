//go:build amd64 && !purego

package kernels

// hasAVX2 and hasAVX512 say which assembly tiers this CPU executes. They
// are read once, at package initialisation.
var hasAVX2, hasAVX512 = probe()

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register-state components the OS saves.
func xgetbv() (eax, edx uint32)

// probe reports the AVX2 tier when the CPU has AVX2 and POPCNT and the OS
// saves YMM state, and the AVX-512 tier when it also has AVX512F, BW and
// VPOPCNTDQ and the OS saves opmask and ZMM state (XCR0 bits 5–7).
func probe() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, c1, _ := cpuid(1, 0); c1&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, b7, c7, _ := cpuid(7, 0)
	const ymmState, zmmState = 0x06, 0xe6
	const avx2Bit, avx512f, avx512bw, vpopcntdq = 1 << 5, 1 << 16, 1 << 30, 1 << 14
	avx2 = xcr0&ymmState == ymmState && b7&avx2Bit != 0
	avx512 = avx2 && xcr0&zmmState == zmmState &&
		b7&(avx512f|avx512bw) == avx512f|avx512bw && c7&vpopcntdq != 0
	return avx2, avx512
}
