//go:build amd64 && !purego

#include "textflag.h"

// The sweeps share one contract: S = len(win), K = len(acc), filters holds
// at least K·S words (the Go wrapper checks), and
// acc[k] = Σᵢ popcount(win[i] XOR filters[k·S+i]). Nothing is assumed
// about alignment.

// func sweepAVX512(win, filters []uint64, acc []int32)
//
// Four filters per pass share each window load; every filter keeps eight
// 64-bit lane sums in one ZMM register, and the S mod 8 tail is a
// zero-masked load, so no lane past a slice end is ever touched.
TEXT ·sweepAVX512(SB), NOSPLIT, $0-72
	MOVQ win_base+0(FP), DI
	MOVQ win_len+8(FP), R11
	MOVQ filters_base+24(FP), SI
	MOVQ acc_base+48(FP), DX
	MOVQ acc_len+56(FP), BX

	MOVQ R11, R9
	SHLQ $3, R9          // R9 = filter stride in bytes
	LEAQ (R9)(R9*2), R10 // R10 = three strides
	MOVQ R11, CX
	ANDQ $7, CX          // CX = tail words
	SHRQ $3, R11         // R11 = full 8-word chunks
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1         // K1 = tail lane mask

group4:
	CMPQ BX, $4
	JLT  single
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ DI, R8
	MOVQ SI, AX
	MOVQ R11, R12
	TESTQ R12, R12
	JZ   tail4

	PCALIGN $64
chunk4:
	VMOVDQU64 (R8), Z4
	VPXORQ (AX), Z4, Z5
	VPXORQ (AX)(R9*1), Z4, Z6
	VPXORQ (AX)(R9*2), Z4, Z7
	VPXORQ (AX)(R10*1), Z4, Z8
	VPOPCNTQ Z5, Z5
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7
	VPOPCNTQ Z8, Z8
	VPADDQ Z5, Z0, Z0
	VPADDQ Z6, Z1, Z1
	VPADDQ Z7, Z2, Z2
	VPADDQ Z8, Z3, Z3
	ADDQ $64, R8
	ADDQ $64, AX
	DECQ R12
	JNZ  chunk4

tail4:
	TESTQ CX, CX
	JZ   reduce4
	VMOVDQU64.Z (R8), K1, Z4
	VMOVDQU64.Z (AX), K1, Z5
	VMOVDQU64.Z (AX)(R9*1), K1, Z6
	VMOVDQU64.Z (AX)(R9*2), K1, Z7
	VMOVDQU64.Z (AX)(R10*1), K1, Z8
	VPXORQ Z4, Z5, Z5
	VPXORQ Z4, Z6, Z6
	VPXORQ Z4, Z7, Z7
	VPXORQ Z4, Z8, Z8
	VPOPCNTQ Z5, Z5
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7
	VPOPCNTQ Z8, Z8
	VPADDQ Z5, Z0, Z0
	VPADDQ Z6, Z1, Z1
	VPADDQ Z7, Z2, Z2
	VPADDQ Z8, Z3, Z3

reduce4:
	// Interleave the four filters' lane sums so one reduction serves all:
	// each sum stays below 2³², so filters 2 and 3 ride in the high halves
	// of the quadwords holding filters 0 and 1.
	VPUNPCKLQDQ Z1, Z0, Z4
	VPUNPCKHQDQ Z1, Z0, Z5
	VPADDQ Z5, Z4, Z4    // per 128-bit lane: [f0, f1]
	VPUNPCKLQDQ Z3, Z2, Z6
	VPUNPCKHQDQ Z3, Z2, Z7
	VPADDQ Z7, Z6, Z6    // per 128-bit lane: [f2, f3]
	VPSLLQ $32, Z6, Z6
	VPORQ Z6, Z4, Z4     // dwords per lane: [f0, f2, f1, f3]
	VEXTRACTI64X4 $1, Z4, Y5
	VPADDD Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD X5, X4, X4
	VPSHUFD $0xD8, X4, X4 // [f0, f1, f2, f3]
	VMOVDQU X4, (DX)
	ADDQ $16, DX
	LEAQ (SI)(R9*4), SI
	SUBQ $4, BX
	JMP  group4

single:
	TESTQ BX, BX
	JZ   done
	VPXORQ Z0, Z0, Z0
	MOVQ DI, R8
	MOVQ SI, AX
	MOVQ R11, R12
	TESTQ R12, R12
	JZ   tail1

	PCALIGN $64
chunk1:
	VMOVDQU64 (R8), Z4
	VPXORQ (AX), Z4, Z4
	VPOPCNTQ Z4, Z4
	VPADDQ Z4, Z0, Z0
	ADDQ $64, R8
	ADDQ $64, AX
	DECQ R12
	JNZ  chunk1

tail1:
	TESTQ CX, CX
	JZ   reduce1
	VMOVDQU64.Z (R8), K1, Z4
	VMOVDQU64.Z (AX), K1, Z5
	VPXORQ Z4, Z5, Z5
	VPOPCNTQ Z5, Z5
	VPADDQ Z5, Z0, Z0

reduce1:
	VEXTRACTI64X4 $1, Z0, Y1
	VPADDQ Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSRLDQ $8, X0, X1
	VPADDQ X1, X0, X0
	VMOVD X0, (DX)
	ADDQ $4, DX
	ADDQ R9, SI
	DECQ BX
	JMP  single

done:
	VZEROUPPER
	RET

// Nibble popcounts for VPSHUFB, and the low-nibble mask.
DATA nibblePop<>+0(SB)/8, $0x0302020102010100
DATA nibblePop<>+8(SB)/8, $0x0403030203020201
DATA nibblePop<>+16(SB)/8, $0x0302020102010100
DATA nibblePop<>+24(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32

// func sweepAVX2(win, filters []uint64, acc []int32)
//
// One filter at a time, four words per step: each byte of win XOR filter
// is split into nibbles, VPSHUFB looks both up in the popcount table, and
// the byte counts accumulate for up to 31 steps (31·8 < 256) before
// VPSADBW widens them into the 64-bit lane sums. The S mod 4 tail words
// go through scalar POPCNT.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-72
	MOVQ win_base+0(FP), DI
	MOVQ win_len+8(FP), R11
	MOVQ filters_base+24(FP), SI
	MOVQ acc_base+48(FP), DX
	MOVQ acc_len+56(FP), BX

	MOVQ R11, R9
	SHLQ $3, R9          // R9 = filter stride in bytes
	MOVQ R11, R13
	ANDQ $3, R13         // R13 = tail words
	SHRQ $2, R11         // R11 = full 4-word steps
	VMOVDQU nibblePop<>(SB), Y8
	VMOVDQU nibbleMask<>(SB), Y9
	VPXOR Y10, Y10, Y10

filter:
	TESTQ BX, BX
	JZ   done2
	VPXOR Y0, Y0, Y0     // 64-bit lane sums
	MOVQ DI, R8
	MOVQ SI, AX
	MOVQ R11, R12

block:
	TESTQ R12, R12
	JZ   tail2
	MOVQ R12, CX
	CMPQ CX, $31
	JLE  sized
	MOVQ $31, CX
sized:
	SUBQ CX, R12
	VPXOR Y1, Y1, Y1     // byte counts of this block

	PCALIGN $64
step:
	VMOVDQU (R8), Y2
	VPXOR (AX), Y2, Y2
	VPSRLW $4, Y2, Y3
	VPAND Y9, Y2, Y2
	VPAND Y9, Y3, Y3
	VPSHUFB Y2, Y8, Y2
	VPSHUFB Y3, Y8, Y3
	VPADDB Y2, Y1, Y1
	VPADDB Y3, Y1, Y1
	ADDQ $32, R8
	ADDQ $32, AX
	DECQ CX
	JNZ  step
	VPSADBW Y10, Y1, Y1
	VPADDQ Y1, Y0, Y0
	JMP  block

tail2:
	XORQ R10, R10        // tail count
	MOVQ R13, CX
	TESTQ CX, CX
	JZ   reduce2
word:
	MOVQ (R8), R12
	XORQ (AX), R12
	POPCNTQ R12, R12
	ADDQ R12, R10
	ADDQ $8, R8
	ADDQ $8, AX
	DECQ CX
	JNZ  word

reduce2:
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSRLDQ $8, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, R12
	ADDQ R10, R12
	MOVL R12, (DX)
	ADDQ $4, DX
	ADDQ R9, SI
	DECQ BX
	JMP  filter

done2:
	VZEROUPPER
	RET

// func geBitsAVX512(d, t []int32) uint64
//
// Bit c of the result is d[c] ≥ t[c] for c < len(d) ≤ 64 (signed): four
// VPCMPD into mask registers, each under the slice of the length mask
// that covers its 16 channels, so short inputs load nothing out of range.
TEXT ·geBitsAVX512(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), SI
	MOVQ d_len+8(FP), CX
	MOVQ t_base+24(FP), DI
	MOVQ $-1, AX
	CMPQ CX, $64
	JGE  masks
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
masks:
	KMOVQ AX, K1
	KSHIFTRQ $16, K1, K2
	KSHIFTRQ $32, K1, K3
	KSHIFTRQ $48, K1, K4
	VMOVDQU32.Z (SI), K1, Z0
	VMOVDQU32.Z (DI), K1, Z1
	VPCMPD $5, Z1, Z0, K1, K1
	VMOVDQU32.Z 64(SI), K2, Z2
	VMOVDQU32.Z 64(DI), K2, Z3
	VPCMPD $5, Z3, Z2, K2, K2
	VMOVDQU32.Z 128(SI), K3, Z0
	VMOVDQU32.Z 128(DI), K3, Z1
	VPCMPD $5, Z1, Z0, K3, K3
	VMOVDQU32.Z 192(SI), K4, Z2
	VMOVDQU32.Z 192(DI), K4, Z3
	VPCMPD $5, Z3, Z2, K4, K4
	KUNPCKWD K1, K2, K1
	KUNPCKWD K3, K4, K3
	KUNPCKDQ K1, K3, K1
	KMOVQ K1, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func geBitsAVX2(d, t []int32) uint64
//
// Same contract, eight channels per VPCMPGTD (t > d, inverted), the last
// len(d) mod 8 channels by scalar compare.
TEXT ·geBitsAVX2(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), SI
	MOVQ d_len+8(FP), BX
	MOVQ t_base+24(FP), DI
	XORQ AX, AX          // result
	XORQ CX, CX          // bit position

eight:
	CMPQ BX, $8
	JLT  one
	VMOVDQU (DI), Y0
	VPCMPGTD (SI), Y0, Y0
	VMOVMSKPS Y0, R8
	XORQ $0xff, R8
	SHLQ CX, R8
	ORQ  R8, AX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $8, CX
	SUBQ $8, BX
	JMP  eight

one:
	TESTQ BX, BX
	JZ   done3
	MOVL (SI), R8
	XORQ R9, R9
	CMPL R8, (DI)
	SETGE R9
	SHLQ CX, R9
	ORQ  R9, AX
	ADDQ $4, SI
	ADDQ $4, DI
	INCQ CX
	DECQ BX
	JMP  one

done3:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
