package core

import (
	"fmt"
	"math"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
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
