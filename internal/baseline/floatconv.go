package baseline

import (
	"fmt"

	"bitflow/internal/exec"
	"bitflow/internal/tensor"
)

// ConvDirect computes a full-precision convolution with direct
// (non-unfolded) loops. Padding positions take padVal. This is both the
// float performance baseline and the bit-exact correctness reference for
// PressedConv (applied to ±1 tensors with padVal = −1).
func ConvDirect(in *tensor.Tensor, f *tensor.Filter, stride, pad int, padVal float32, threads int) *tensor.Tensor {
	if f.C != in.C {
		panic(fmt.Sprintf("baseline: ConvDirect channels %d vs %d", f.C, in.C))
	}
	outH := (in.H+2*pad-f.KH)/stride + 1
	outW := (in.W+2*pad-f.KW)/stride + 1
	out := tensor.New(outH, outW, f.K)
	total := outH * outW
	body := func(start, end int) {
		for idx := start; idx < end; idx++ {
			y := idx / outW
			x := idx % outW
			dst := out.Pixel(y, x)
			y0 := y*stride - pad
			x0 := x*stride - pad
			for k := 0; k < f.K; k++ {
				var acc float32
				for i := 0; i < f.KH; i++ {
					sy := y0 + i
					for j := 0; j < f.KW; j++ {
						sx := x0 + j
						tap := f.Tap(k, i, j)
						if sy < 0 || sy >= in.H || sx < 0 || sx >= in.W {
							if padVal != 0 {
								for c := 0; c < in.C; c++ {
									acc += padVal * tap[c]
								}
							}
							continue
						}
						px := in.Pixel(sy, sx)
						acc += dotF32(px, tap)
					}
				}
				dst[k] = acc
			}
		}
	}
	runChunks(total, threads, body)
	return out
}

// dotF32 returns the inner product of equal-length slices, unrolled by 4.
func dotF32(a, b []float32) float32 {
	n := len(a)
	_ = b[n-1]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// runChunks is the baseline package's thread helper. It dispatches on
// the same persistent pool and chunking as the binary paths, as one
// OpenMP team would run both.
func runChunks(total, threads int, body func(start, end int)) {
	exec.Threads(threads).ParallelFor(total, body)
}
