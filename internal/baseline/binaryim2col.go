package baseline

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/kernels"
	"bitflow/internal/tensor"
)

// BinaryIm2colConv is the paper's *unoptimized BNN* baseline (Fig. 7):
// binary convolution through the conventional image-to-column method.
// The input is unfolded at run time, each unfolded row is binarized and
// bit-packed along the unfolded (KH*KW*C) dimension, and the product is a
// binary gemm run with the scalar single-word kernel — no vector
// parallelism. It inherits both §III-A limits: the unfold's extra memory
// traffic, and an unfolded length that is generally not a multiple of the
// wider vector tiers.
type BinaryIm2colConv struct {
	KH, KW, Stride, Pad int
	K, C                int

	cols    int                   // KH*KW*C, the unfolded row length in lanes
	wpr     int                   // words per unfolded row
	weights *bitpack.PackedMatrix // K rows × wpr

	// Kernel is the XOR+popcount kernel; the authentic baseline is the
	// scalar XorPop64. Ablations may install a wider kernel to measure
	// "im2col but vectorized" separately from the layout change.
	Kernel kernels.XorPopFunc
}

// NewBinaryIm2colConv packs the (sign-binarized) filter bank along the
// unfolded dimension and returns the baseline operator.
func NewBinaryIm2colConv(f *tensor.Filter, stride, pad int) *BinaryIm2colConv {
	cols := f.KH * f.KW * f.C
	wpr := bitpack.WordsFor(cols)
	w := FilterMatrix(f) // K × cols; rows are already the unfolded order
	pm := bitpack.NewPackedMatrix(f.K, cols, wpr)
	for k := 0; k < f.K; k++ {
		bitpack.PackVectorInto(pm.RowWords(k), w.Row(k))
	}
	return &BinaryIm2colConv{
		KH: f.KH, KW: f.KW, Stride: stride, Pad: pad,
		K: f.K, C: f.C,
		cols: cols, wpr: wpr, weights: pm,
		Kernel: kernels.XorPop64,
	}
}

// Forward runs the baseline convolution on a ±1-valued input tensor and
// returns raw integer inner products as float32 (NHWC). Binarized zero
// padding pads the bit 0 (= feature −1). threads splits the unfolded
// rows, matching how a gemm-backed conv parallelizes.
func (b *BinaryIm2colConv) Forward(in *tensor.Tensor, threads int) *tensor.Tensor {
	if in.C != b.C {
		panic(fmt.Sprintf("baseline: BinaryIm2colConv input C=%d, want %d", in.C, b.C))
	}
	outH := (in.H+2*b.Pad-b.KH)/b.Stride + 1
	outW := (in.W+2*b.Pad-b.KW)/b.Stride + 1
	// Step 1: unfold (run-time cost, charged to the baseline).
	u := Im2col(in, b.KH, b.KW, b.Stride, b.Pad, -1)
	out := tensor.New(outH, outW, b.K)
	rows := u.Rows
	runChunks(rows, threads, func(r0, r1 int) {
		packed := make([]uint64, b.wpr)
		for r := r0; r < r1; r++ {
			// Step 2: binarize + pack the unfolded row at run time —
			// the baseline cannot pre-pack activations.
			bitpack.PackVectorInto(packed, u.Row(r))
			dst := out.Data[r*b.K : (r+1)*b.K]
			// Step 3: binary gemm row × weightsᵀ with the configured
			// (scalar, for the authentic baseline) kernel.
			for k := 0; k < b.K; k++ {
				acc := b.Kernel(packed, b.weights.RowWords(k))
				dst[k] = float32(int32(b.cols) - 2*int32(acc))
			}
		}
	})
	return out
}
