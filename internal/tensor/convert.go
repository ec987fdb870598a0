package tensor

// This file converts between NHWC (BitFlow's locality-aware layout,
// paper §III-B) and NCHW (the default of mainstream frameworks such as
// Caffe/MXNet/PyTorch, which the paper contrasts against). The ablation
// benchmarks use these to quantify what adopting NHWC buys.

// FromNCHW builds an NHWC tensor from data laid out as NCHW
// (c-major: index (c*H+h)*W + w), batch 1.
//
//bitflow:keep paper ablation: bench_test.go's AblationPackFromNCHW times the NCHW → NHWC conversion
func FromNCHW(h, w, c int, data []float32) *Tensor {
	if len(data) != h*w*c {
		panic("tensor: FromNCHW length mismatch")
	}
	out := New(h, w, c)
	for ci := 0; ci < c; ci++ {
		for hi := 0; hi < h; hi++ {
			for wi := 0; wi < w; wi++ {
				out.Data[(hi*w+wi)*c+ci] = data[(ci*h+hi)*w+wi]
			}
		}
	}
	return out
}

// ToNCHW returns t's contents as a freshly allocated NCHW slice.
func (t *Tensor) ToNCHW() []float32 {
	out := make([]float32, t.Len())
	for c := 0; c < t.C; c++ {
		for h := 0; h < t.H; h++ {
			for w := 0; w < t.W; w++ {
				out[(c*t.H+h)*t.W+w] = t.Data[(h*t.W+w)*t.C+c]
			}
		}
	}
	return out
}
