// Package kernels provides BitFlow's XOR + popcount microkernels and the
// binary GEMM built on them (paper gemm level, §IV; SIMD instruction
// table, paper Table I).
//
// One primitive does the work: the sweep (sweep.go). It XOR+popcounts one
// contiguous S-word window against K consecutive S-word filter blocks and
// writes the K counts, acc[k] = Σᵢ popcount(win[i] XOR filters[k·S+i]) —
// a convolution window against its filter bank, a dense input row against
// the weight rows, or (operands swapped) one filter against B gathered
// windows. It exists in three tiers, chosen once at start-up from a
// CPUID/XGETBV probe (cpu_amd64.go):
//
//   - W512: Go assembly on AVX-512 — _mm512_xor_si512 and
//     _mm512_popcnt_epi64 of Table I (VPXORQ + VPOPCNTQ), four filters
//     per pass, a masked load for the S mod 8 tail. Needs AVX512F, BW and
//     VPOPCNTDQ with ZMM state enabled by the OS.
//   - W256: Go assembly on AVX2 — VPXOR plus the VPSHUFB nibble-table
//     popcount reduced by VPSADBW, for CPUs without a vector popcount.
//   - W64: one pure-Go loop over math/bits.OnesCount64 (hardware POPCNT
//     on amd64). It is the portable fallback — every build that is not
//     amd64, or is built with -tags purego — and the oracle the assembly
//     tiers are fuzzed against.
//
// A Width names the tier a caller asks for; Width.Tier resolves it to the
// widest of those three the CPU executes, so asking for W512 on an AVX2
// machine is safe. The sweeps mask their own tails, so every operator
// runs at the machine's tier whatever its channel count: the paper's
// §III-B ladder, which hands channel counts no wide width divides to the
// scalar kernel, has no counterpart here.
//
// The Epilogue (epilogue.go) turns counts into the next layer's packed
// bits on the same tiers. See DESIGN.md §2.
package kernels

import "fmt"

// Width identifies a vector width as the number of 64-bit words one
// kernel step covers.
type Width int

const (
	// W64 is the scalar kernel: one uint64 per step ("intrinsic bitwise
	// instruction" tier of the scheduler rules, paper §III-B rule 4).
	W64 Width = 1
	// W256 is the AVX2 tier.
	W256 Width = 4
	// W512 is the AVX-512 tier.
	W512 Width = 8
)

// Bits returns the vector width in bits.
func (w Width) Bits() int { return int(w) * 64 }

// Words returns the number of 64-bit words per kernel step.
func (w Width) Words() int { return int(w) }

// Tier returns the widest kernel tier this CPU (and this build) executes
// that is no wider than w: W512, W256 or W64.
func (w Width) Tier() Width {
	switch {
	case w >= W512 && hasAVX512:
		return W512
	case w >= W256 && hasAVX2:
		return W256
	}
	return W64
}

// String names the width after its instruction set.
func (w Width) String() string {
	switch w {
	case W64:
		return "scalar64"
	case W256:
		return "avx256"
	case W512:
		return "avx512"
	}
	return fmt.Sprintf("Width(%d)", int(w))
}
