package core

import (
	"fmt"
	"math"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// MultiBitConv generalizes binary convolution to multi-bit *activations*
// with binary weights — the DoReFa-Net direction the paper cites ([31]
// Zhou et al.): an activation quantized to B bits decomposes into B
// binary bit-planes, and since convolution is linear,
//
//	conv(a, Wᵇ) = Σₜ 2ᵗ · bconv(aₜ, Wᵇ) + offset·Σ Wᵇ
//
// where aₜ is bit t of the quantized activation. Every plane runs on the
// unmodified PressedConv kernels, so B-bit activations cost B binary
// convolutions — the same trade MultiBaseConv makes on the weight side.
//
// Activations are quantized uniformly to {0, 1, …, 2ᴮ−1} over a caller-
// supplied range [lo, hi] (DoReFa clamps to [0, 1]); each plane packs
// with the standard channel-dimension layout.
type MultiBitConv struct {
	Shape sched.ConvShape
	Plan  sched.Plan
	// Bits is the activation bit width B.
	Bits int
	// Lo and Hi bound the quantization range.
	Lo, Hi float32

	conv *Conv // shared binary machinery over the packed planes
	// rowsKernel accumulates XOR+popcount over all KH row segments of
	// one filter in a single call (ForwardFused walks B planes per pixel).
	rowsKernel kernels.XorPopRowsFunc
	// weightSums[k] = Σ filter k's ±1 weights, for the offset term.
	weightSums []int32
}

// NewMultiBitConv builds the operator: weights binarize once (sign), the
// activation range [lo, hi] quantizes to 2^bits levels.
func NewMultiBitConv(shape sched.ConvShape, plan sched.Plan, f *tensor.Filter, bits int, lo, hi float32) (*MultiBitConv, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("core: activation bits %d outside [1, 8]", bits)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("core: quantization range [%v, %v] is empty", lo, hi)
	}
	cv, err := NewConv(shape, plan, f)
	if err != nil {
		return nil, err
	}
	mb := &MultiBitConv{
		Shape: shape, Plan: plan, Bits: bits, Lo: lo, Hi: hi,
		conv:       cv,
		rowsKernel: kernels.RowsForWidth(plan.Width),
		weightSums: make([]int32, shape.K),
	}
	fb := f.Sign()
	perFilter := shape.KH * shape.KW * shape.InC
	for k := 0; k < shape.K; k++ {
		var s int32
		for i := 0; i < perFilter; i++ {
			s += int32(fb.Data[k*perFilter+i])
		}
		mb.weightSums[k] = s
	}
	return mb, nil
}

// Quantize maps v into the integer level grid {0 … 2^Bits−1}.
func (mb *MultiBitConv) Quantize(v float32) int {
	levels := 1<<mb.Bits - 1
	q := int(math.Round(float64(v-mb.Lo) / float64(mb.Hi-mb.Lo) * float64(levels)))
	if q < 0 {
		q = 0
	}
	if q > levels {
		q = levels
	}
	return q
}

// step returns the quantization step size in activation units.
func (mb *MultiBitConv) step() float32 {
	return (mb.Hi - mb.Lo) / float32(int(1)<<mb.Bits-1)
}

// NewPlanes allocates the B packed bit-plane buffers with the operator's
// margins.
func (mb *MultiBitConv) NewPlanes() []*bitpack.Packed {
	planes := make([]*bitpack.Packed, mb.Bits)
	for t := range planes {
		planes[t] = bitpack.NewPacked(mb.Shape.InH, mb.Shape.InW, mb.Shape.InC,
			mb.Plan.Words, mb.Shape.Pad, mb.Shape.Pad)
	}
	return planes
}

// PackPlanes quantizes in and writes its bit-planes (plane t holds bit t
// of each quantized activation; a set bit packs as +1, clear as −1, and
// the decode below corrects for the offset).
func (mb *MultiBitConv) PackPlanes(in *tensor.Tensor, planes []*bitpack.Packed) {
	if in.H != mb.Shape.InH || in.W != mb.Shape.InW || in.C != mb.Shape.InC {
		panic(fmt.Sprintf("core: multibit input %v, want %dx%dx%d", in, mb.Shape.InH, mb.Shape.InW, mb.Shape.InC))
	}
	if len(planes) != mb.Bits {
		panic(fmt.Sprintf("core: %d planes, want %d", len(planes), mb.Bits))
	}
	for h := 0; h < in.H; h++ {
		for w := 0; w < in.W; w++ {
			px := in.Pixel(h, w)
			for t := 0; t < mb.Bits; t++ {
				words := planes[t].PixelWords(h, w)
				clear(words)
				for c, v := range px {
					if mb.Quantize(v)>>t&1 == 1 {
						words[c/bitpack.WordBits] |= 1 << (uint(c) % bitpack.WordBits)
					}
				}
			}
		}
	}
}

// Forward computes the multi-bit convolution into out (float32). Padding
// quantizes like activation value Lo (all plane bits clear), mirroring
// DoReFa's clamp-to-zero padding when Lo = 0.
func (mb *MultiBitConv) Forward(planes []*bitpack.Packed, out *tensor.Tensor, ec *exec.Ctx) {
	s := mb.Shape
	if out.H != s.OutH || out.W != s.OutW || out.C != s.OutC {
		panic(fmt.Sprintf("core: multibit output %v, want %dx%dx%d", out, s.OutH, s.OutW, s.OutC))
	}
	// Each plane's ±1 inner product dₜ relates to the 0/1-valued bit
	// convolution by bit·w = (d + Σw)/2. Summing planes with weights 2ᵗ
	// and mapping levels back through lo + step·q gives:
	//   conv = lo·Σw + step·Σₜ 2ᵗ·(dₜ + Σw)/2
	scratch := tensor.New(s.OutH, s.OutW, s.OutC)
	out.Zero()
	step := mb.step()
	for t := 0; t < mb.Bits; t++ {
		mb.conv.Forward(planes[t], scratch, ec)
		w := step * float32(int32(1)<<uint(t)) / 2
		for i, v := range scratch.Data {
			out.Data[i] += w * v
		}
	}
	// Constant offsets per output channel.
	planeSum := float32(int(1)<<mb.Bits-1) / 2 // Σ 2ᵗ/2
	for i := range out.Data {
		k := i % s.OutC
		out.Data[i] += (mb.Lo + step*planeSum) * float32(mb.weightSums[k])
	}
}

// Reference computes the same quantized convolution directly in float
// space (for tests): conv(lo + step·q(a), sign(W)) with quantized-lo
// padding.
func (mb *MultiBitConv) Reference(in *tensor.Tensor, fb *tensor.Filter) *tensor.Tensor {
	s := mb.Shape
	q := tensor.New(in.H, in.W, in.C)
	stepv := mb.step()
	for i, v := range in.Data {
		q.Data[i] = mb.Lo + stepv*float32(mb.Quantize(v))
	}
	out := tensor.New(s.OutH, s.OutW, s.OutC)
	for y := 0; y < s.OutH; y++ {
		for x := 0; x < s.OutW; x++ {
			dst := out.Pixel(y, x)
			for k := 0; k < s.K; k++ {
				var acc float32
				for i := 0; i < s.KH; i++ {
					sy := y*s.Stride - s.Pad + i
					for j := 0; j < s.KW; j++ {
						sx := x*s.Stride - s.Pad + j
						tap := fb.Tap(k, i, j)
						if sy < 0 || sy >= in.H || sx < 0 || sx >= in.W {
							for c := range tap {
								acc += mb.Lo * tap[c]
							}
							continue
						}
						px := q.Pixel(sy, sx)
						for c := range tap {
							acc += px[c] * tap[c]
						}
					}
				}
				dst[k] = acc
			}
		}
	}
	return out
}

// ForwardFused computes the multi-bit convolution with a per-channel
// float threshold → binarize epilogue fused in, writing packed bits
// straight into out. Unlike Forward, which materializes one float plane
// per bit-plane pass plus the float output plane, the fused form walks
// the B planes per output pixel and never touches a float activation
// buffer. thr holds the per-filter thresholds (bit = acc ≥ thr[k]); nil
// means 0. out takes the conv's output geometry.
//
//bitflow:hot
func (mb *MultiBitConv) ForwardFused(planes []*bitpack.Packed, thr []float32, out *bitpack.Packed, ec *exec.Ctx) {
	s := mb.Shape
	if len(planes) != mb.Bits {
		panic(fmt.Sprintf("core: %d planes, want %d", len(planes), mb.Bits))
	}
	for _, p := range planes {
		if p.H != s.InH || p.W != s.InW || p.C != s.InC || p.WPP != mb.Plan.Words {
			panic(fmt.Sprintf("core: multibit plane %v, want %dx%dx%d wpp=%d", p, s.InH, s.InW, s.InC, mb.Plan.Words))
		}
		if p.MarginH < s.Pad || p.MarginW < s.Pad {
			panic("core: multibit plane margins too small")
		}
	}
	if out.H != s.OutH || out.W != s.OutW || out.C != s.OutC {
		panic(fmt.Sprintf("core: multibit output %v, want %dx%dx%d", out, s.OutH, s.OutW, s.OutC))
	}
	if thr != nil && len(thr) != s.K {
		panic(fmt.Sprintf("core: multibit thresholds len %d, want K=%d", len(thr), s.K))
	}
	cv := mb.conv
	f := mb.rowsKernel
	n32 := int32(cv.validLanes)
	rowLen := cv.rowLen
	fstride := s.KH * rowLen
	fw := cv.filter.Words
	step := mb.step()
	planeSum := float32(int(1)<<mb.Bits-1) / 2
	offsetScale := mb.Lo + step*planeSum
	total := s.OutH * s.OutW
	ws := mb.weightSums
	ec.ParallelFor(total, func(start, end int) {
		// One hoisted row set per bit-plane (Bits ≤ 8, KH ≤ 16).
		var planeRows [8][16][]uint64 //bitflow:alloc-ok one scratch per worker chunk; the row slices leak into the indirect kernel call
		// Clamp KH against the scratch capacity once: the no-op clamp is
		// what lets the prover discharge every planeRows access below.
		kh := s.KH
		if kh > len(planeRows[0]) {
			kh = len(planeRows[0])
		}
		for idx := start; idx < end; idx++ {
			y := idx / s.OutW
			x := idx % s.OutW
			y0 := y*s.Stride - s.Pad
			x0 := x*s.Stride - s.Pad
			for t := range planeRows {
				if t >= len(planes) {
					break
				}
				pl := planes[t]
				pr := &planeRows[t]
				for i := 0; i < kh; i++ {
					off := pl.PixelOffset(y0+i, x0)
					pr[i] = pl.Words[off : off+rowLen : off+rowLen] //bitflow:bce-ok one slice per filter row; the pixel-offset arithmetic is opaque to the prover
				}
			}
			// Word-major packing: the output cursor dw and the bit shift
			// advance together, so every per-filter access below is
			// compiler-proven in bounds (`bitflow-vet codegen`).
			dw := out.PixelWords(y, x) //bitflow:bce-ok inlined PixelWords slicing; once per output pixel, amortized over K filters of kernel calls
			var word uint64
			shift := uint(0)
			for k := 0; k < s.K; k++ {
				base := k * fstride
				// Accumulate planes first, offset last — the exact float
				// addition order of Forward, so fused bits match it even at
				// rounding boundaries.
				var acc float32
				for t := range planeRows {
					if t >= len(planes) {
						break
					}
					pop := f(planeRows[t][:kh], fw[base:base+fstride:base+fstride]) //bitflow:bce-ok once per (filter, plane), amortized over the fstride-word kernel call
					w := step * float32(int32(1)<<uint(t)) / 2
					acc += w * float32(n32-2*int32(pop))
				}
				if k < len(ws) {
					acc += offsetScale * float32(ws[k])
				}
				// k < len(thr) is the nil check too: nil thr has length 0
				// and every filter falls back to the plain sign threshold.
				var th float32
				if k < len(thr) {
					th = thr[k]
				}
				if acc >= th {
					word |= 1 << shift
				}
				if shift++; shift == bitpack.WordBits {
					if len(dw) > 0 {
						dw[0] = word
						dw = dw[1:]
					}
					word, shift = 0, 0
				}
			}
			if shift != 0 && len(dw) > 0 {
				dw[0] = word
				dw = dw[1:]
			}
			for len(dw) > 0 {
				dw[0] = 0
				dw = dw[1:]
			}
		}
	})
}
