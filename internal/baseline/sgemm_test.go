package baseline

import (
	"fmt"

	"bitflow/internal/exec"
	"bitflow/internal/tensor"
)

// The float image-to-column convolution (paper §II-B): unfold, then a
// blocked sgemm against the flattened weights. No program times it; the
// tests keep it as a second, independent float convolution that
// ConvDirect — the oracle of every binary path — must agree with.

// sgemm block sizes.
const (
	sgemmMC = 64  // rows of A per block
	sgemmKC = 256 // inner dimension per block
)

// Sgemm computes C = A×B for row-major float32 matrices with k-blocked
// i-k-j loops (streaming writes to C rows, unit-stride reads of B rows).
func Sgemm(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows, b.Cols)
	SgemmInto(a, b, c)
	return c
}

// SgemmInto computes C += A×B into c, which must be a.Rows × b.Cols.
func SgemmInto(a, b, c *tensor.Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("baseline: Sgemm %v × %v -> %v shape mismatch", a, b, c))
	}
	sgemmRows(a, b, c, 0, a.Rows)
}

// SgemmParallel runs Sgemm with rows of A split across threads.
func SgemmParallel(a, b *tensor.Matrix, threads int) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows, b.Cols)
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("baseline: Sgemm %v × %v inner dim mismatch", a, b))
	}
	if threads <= 1 || a.Rows < 2*threads {
		sgemmRows(a, b, c, 0, a.Rows)
		return c
	}
	exec.Threads(threads).ParallelFor(a.Rows, func(r0, r1 int) {
		sgemmRows(a, b, c, r0, r1)
	})
	return c
}

// sgemmRows computes rows [r0, r1) of C += A×B with k-blocking.
func sgemmRows(a, b, c *tensor.Matrix, r0, r1 int) {
	n := b.Cols
	for kc := 0; kc < a.Cols; kc += sgemmKC {
		kEnd := min(kc+sgemmKC, a.Cols)
		for mc := r0; mc < r1; mc += sgemmMC {
			mEnd := min(mc+sgemmMC, r1)
			for i := mc; i < mEnd; i++ {
				arow := a.Row(i)
				crow := c.Row(i)
				for k := kc; k < kEnd; k++ {
					if av := arow[k]; av != 0 {
						axpy(crow, b.Data[k*n:(k+1)*n], av)
					}
				}
			}
		}
	}
}

// ConvIm2col computes a full-precision convolution by unfolding in and
// multiplying by the flattened weight matrix. Returns the output in NHWC.
func ConvIm2col(in *tensor.Tensor, f *tensor.Filter, stride, pad int, padVal float32, threads int) *tensor.Tensor {
	u := Im2col(in, f.KH, f.KW, stride, pad, padVal) // (outH*outW) × (kh*kw*C)
	w := FilterMatrix(f)                             // K × (kh*kw*C)
	prod := SgemmParallel(u, w.T(), threads)         // (outH*outW) × K
	outH := (in.H+2*pad-f.KH)/stride + 1
	outW := (in.W+2*pad-f.KW)/stride + 1
	return tensor.FromSlice(outH, outW, f.K, prod.Data)
}

// Words reports the packed unfolded row length in 64-bit words.
func (b *BinaryIm2colConv) Words() int { return b.wpr }
