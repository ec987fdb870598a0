package baseline

import (
	"fmt"

	"bitflow/internal/tensor"
)

// DenseFloat computes out = in × W for a 1×N activation row and an N×K
// weight matrix — the counterpart full-precision fully connected
// operator. The loop order streams rows of W (unit stride) and skips
// zero activations; threads split the N dimension is not profitable for
// M = 1, so the split is over K via column blocks.
func DenseFloat(in []float32, w *tensor.Matrix, out []float32, threads int) {
	if len(in) != w.Rows {
		panic(fmt.Sprintf("baseline: DenseFloat input len %d, want %d", len(in), w.Rows))
	}
	if len(out) != w.Cols {
		panic(fmt.Sprintf("baseline: DenseFloat output len %d, want %d", len(out), w.Cols))
	}
	k := w.Cols
	runChunks(k, threads, func(k0, k1 int) {
		seg := out[k0:k1]
		clear(seg)
		for n, av := range in {
			if av == 0 {
				continue
			}
			axpy(seg, w.Data[n*k+k0:n*k+k1], av)
		}
	})
}

// MaxPoolFloat computes a full-precision KH×KW/stride max pool in NHWC.
func MaxPoolFloat(in *tensor.Tensor, kh, kw, stride, threads int) *tensor.Tensor {
	outH := (in.H-kh)/stride + 1
	outW := (in.W-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("baseline: MaxPoolFloat window %dx%d does not fit %v", kh, kw, in))
	}
	out := tensor.New(outH, outW, in.C)
	total := outH * outW
	runChunks(total, threads, func(start, end int) {
		for idx := start; idx < end; idx++ {
			y := idx / outW
			x := idx % outW
			dst := out.Pixel(y, x)
			copy(dst, in.Pixel(y*stride, x*stride))
			for i := 0; i < kh; i++ {
				for j := 0; j < kw; j++ {
					if i == 0 && j == 0 {
						continue
					}
					px := in.Pixel(y*stride+i, x*stride+j)
					for c, v := range px {
						if v > dst[c] {
							dst[c] = v
						}
					}
				}
			}
		}
	})
	return out
}

// axpy computes dst += alpha*src, unrolled by 4.
func axpy(dst, src []float32, alpha float32) {
	n := len(dst)
	_ = src[n-1]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}
