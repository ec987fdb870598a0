package bitpack

import (
	"fmt"

	"bitflow/internal/tensor"
)

// PackedMatrix is a binarized, bit-packed, *transposed* weight matrix for
// the binary fully connected operator. The source weight matrix B is N×K
// (N input neurons, K output neurons, paper §III-C); PackedMatrix stores K
// rows of WPR words, each row holding the N bits of one output neuron's
// weight column. Packing B transposed makes the bgemm inner loop a linear
// walk over both operands.
type PackedMatrix struct {
	K, N  int // logical dims: K output rows of N bits
	WPR   int // words per row, ≥ WordsFor(N)
	Words []uint64
}

// NewPackedMatrix allocates a zeroed packed matrix.
func NewPackedMatrix(k, n, wpr int) *PackedMatrix {
	if wpr < WordsFor(n) {
		panic(fmt.Sprintf("bitpack: matrix wpr %d < WordsFor(%d)=%d", wpr, n, WordsFor(n)))
	}
	return &PackedMatrix{K: k, N: n, WPR: wpr, Words: make([]uint64, k*wpr)}
}

// RowWords returns the WPR-word slice for output neuron k.
func (pm *PackedMatrix) RowWords(k int) []uint64 {
	off := k * pm.WPR
	return pm.Words[off : off+pm.WPR : off+pm.WPR]
}

// PackMatrixBT fuses binarization, bit-packing and transposition of the
// N×K weight matrix B into a single pass — the paper's Table III
// transform: B is read exactly once and the packed bits land directly at
// their transposed locations ("we store the results of bit-packing in a
// transposed pattern").
//
// The walk is stripe-major for cache friendliness on large matrices
// (fc6 is 25088×4096): each stripe of 64 consecutive rows is streamed
// with unit stride, its K packed words accumulate in a K-word scratch
// buffer (32 KiB for fc6 — L1/L2 resident), and the stripe's words are
// scattered into the transposed layout once.
func PackMatrixBT(b *tensor.Matrix, wpr int) *PackedMatrix {
	n, k := b.Rows, b.Cols
	pm := NewPackedMatrix(k, n, wpr)
	scratch := make([]uint64, k)
	for wi := 0; wi*WordBits < n; wi++ {
		clear(scratch)
		base := wi * WordBits
		top := min(WordBits, n-base)
		for bit := 0; bit < top; bit++ {
			row := b.Data[(base+bit)*k : (base+bit+1)*k]
			mask := uint64(1) << uint(bit)
			for j, v := range row {
				if v >= 0 {
					scratch[j] |= mask
				}
			}
		}
		for j := 0; j < k; j++ {
			pm.Words[j*wpr+wi] = scratch[j]
		}
	}
	return pm
}

// StagedPackMatrixBT computes the same result as PackMatrixBT but in three
// separate passes (binarize to a ±1 matrix, transpose it, then pack each
// row), materializing both intermediates. It exists as the ablation
// baseline quantifying what Table III's fusion buys.
//
//bitflow:keep paper ablation: bench_test.go's AblationStagedTransform times it against PackMatrixBT
func StagedPackMatrixBT(b *tensor.Matrix, wpr int) *PackedMatrix {
	signed := b.Sign()
	bt := signed.T() // K×N
	pm := NewPackedMatrix(bt.Rows, bt.Cols, wpr)
	for k := 0; k < bt.Rows; k++ {
		packChannels(pm.RowWords(k), bt.Row(k))
	}
	return pm
}

// PackVectorInto binarizes and packs v into dst, clearing trailing words.
func PackVectorInto(dst []uint64, v []float32) {
	if len(dst) < WordsFor(len(v)) {
		panic("bitpack: PackVectorInto dst too short")
	}
	packChannels(dst, v)
}

// UnpackVector expands n bits from words into a ±1 float vector.
//
//bitflow:keep test oracle: bitpack and core tests read packed vectors back through it
func UnpackVector(words []uint64, n int) []float32 {
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		if words[i/WordBits]>>(uint(i)%WordBits)&1 == 1 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// String summarizes the packed matrix.
func (pm *PackedMatrix) String() string {
	return fmt.Sprintf("PackedMatrix(K=%d N=%d wpr=%d)", pm.K, pm.N, pm.WPR)
}
