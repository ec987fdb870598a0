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

// MultiBaseConv approximates a full-precision convolution as a linear
// combination of M binary convolutions:
//
//	W ≈ Σₘ αₘ·Bₘ   ⇒   conv(x, W) ≈ Σₘ αₘ·bconv(xᵇ, Bₘ)
//
// — the accuracy-recovery direction the paper points at ("Lin's work
// that approximates full-precision weights with the linear combination
// of multiple binary weight base", ABC-Net). Every bconv runs on the
// same PressedConv machinery (XOR+popcount at the scheduled width), so
// the cost is M× a binary convolution while the weight representation
// approaches full precision as M grows. α is per base per output filter.
type MultiBaseConv struct {
	Shape sched.ConvShape
	Plan  sched.Plan
	// M is the number of binary bases.
	M int

	bases  []*bitpack.PackedFilter // M packed filter banks
	alphas [][]float32             // [m][k] scale of base m, filter k

	rowsKernel kernels.XorPopRowsFunc
	validLanes int
	rowLen     int
}

// FitMultiBase decomposes a float filter bank into M binary bases with
// per-filter scales by greedy residual binarization (ABC-Net's direct
// scheme): B₁ = sign(W), α₁ₖ = mean|Wₖ|, then recurse on the residual
// W − α₁B₁.
func FitMultiBase(f *tensor.Filter, m int) ([]*tensor.Filter, [][]float32, error) {
	if m < 1 {
		return nil, nil, fmt.Errorf("core: need at least one base, got %d", m)
	}
	perFilter := f.KH * f.KW * f.C
	residual := f.Clone()
	bases := make([]*tensor.Filter, 0, m)
	alphas := make([][]float32, 0, m)
	for base := 0; base < m; base++ {
		b := residual.Sign()
		alpha := make([]float32, f.K)
		for k := 0; k < f.K; k++ {
			var sum float64
			off := k * perFilter
			for i := 0; i < perFilter; i++ {
				sum += math.Abs(float64(residual.Data[off+i]))
			}
			alpha[k] = float32(sum / float64(perFilter))
		}
		for k := 0; k < f.K; k++ {
			off := k * perFilter
			for i := 0; i < perFilter; i++ {
				residual.Data[off+i] -= alpha[k] * b.Data[off+i]
			}
		}
		bases = append(bases, b)
		alphas = append(alphas, alpha)
	}
	return bases, alphas, nil
}

// NewMultiBaseConv fits f into m binary bases and builds the operator.
func NewMultiBaseConv(shape sched.ConvShape, plan sched.Plan, f *tensor.Filter, m int) (*MultiBaseConv, error) {
	if f.K != shape.K || f.KH != shape.KH || f.KW != shape.KW || f.C != shape.InC {
		return nil, fmt.Errorf("core: filter %v does not match conv shape %+v", f, shape)
	}
	if plan.C != shape.InC {
		return nil, fmt.Errorf("core: plan built for C=%d, conv has InC=%d", plan.C, shape.InC)
	}
	if shape.KH > maxKH {
		return nil, fmt.Errorf("core: filter height %d exceeds supported maximum %d", shape.KH, maxKH)
	}
	bases, alphas, err := FitMultiBase(f, m)
	if err != nil {
		return nil, err
	}
	mc := &MultiBaseConv{
		Shape: shape, Plan: plan, M: m,
		alphas:     alphas,
		rowsKernel: kernels.RowsForWidth(plan.Width),
		validLanes: shape.KH * shape.KW * shape.InC,
		rowLen:     shape.KW * plan.Words,
	}
	for _, b := range bases {
		mc.bases = append(mc.bases, bitpack.PackFilter(b, plan.Words))
	}
	return mc, nil
}

// Alphas exposes the fitted scales (read-only use).
func (mc *MultiBaseConv) Alphas() [][]float32 { return mc.alphas }

// NewInput allocates a packed input buffer with this operator's margins.
func (mc *MultiBaseConv) NewInput() *bitpack.Packed {
	return bitpack.NewPacked(mc.Shape.InH, mc.Shape.InW, mc.Shape.InC, mc.Plan.Words, mc.Shape.Pad, mc.Shape.Pad)
}

// Forward computes the M-base approximation into out (float32,
// OutH×OutW×K). Inputs are binary (packed); only the weights gain
// precision from the extra bases.
func (mc *MultiBaseConv) Forward(in *bitpack.Packed, out *tensor.Tensor, ec *exec.Ctx) {
	s := mc.Shape
	if in.H != s.InH || in.W != s.InW || in.C != s.InC || in.WPP != mc.Plan.Words {
		panic(fmt.Sprintf("core: multibase input %v, want %dx%dx%d wpp=%d", in, s.InH, s.InW, s.InC, mc.Plan.Words))
	}
	if in.MarginH < s.Pad || in.MarginW < s.Pad {
		panic("core: multibase input margins too small")
	}
	if out.H != s.OutH || out.W != s.OutW || out.C != s.OutC {
		panic(fmt.Sprintf("core: multibase output %v, want %dx%dx%d", out, s.OutH, s.OutW, s.OutC))
	}
	total := s.OutH * s.OutW
	ec.ParallelFor(total, func(start, end int) {
		for idx := start; idx < end; idx++ {
			y := idx / s.OutW
			x := idx % s.OutW
			mc.pixelInto(in, y, x, out.Pixel(y, x))
		}
	})
}

func (mc *MultiBaseConv) pixelInto(in *bitpack.Packed, y, x int, dst []float32) {
	s := mc.Shape
	f := mc.rowsKernel
	n32 := int32(mc.validLanes)
	rowLen := mc.rowLen
	y0 := y*s.Stride - s.Pad
	x0 := x*s.Stride - s.Pad
	var inRows [16][]uint64
	rows := inRows[:s.KH]
	for i := 0; i < s.KH; i++ {
		off := in.PixelOffset(y0+i, x0)
		rows[i] = in.Words[off : off+rowLen : off+rowLen]
	}
	fstride := s.KH * rowLen
	for k := 0; k < s.K; k++ {
		base := k * fstride
		var acc float32
		for m := 0; m < mc.M; m++ {
			fw := mc.bases[m].Words
			pop := f(rows, fw[base:base+fstride:base+fstride])
			acc += mc.alphas[m][k] * float32(n32-2*int32(pop))
		}
		dst[k] = acc
	}
}

// ApproxError reports the relative L2 error of the fitted weight
// approximation ‖W − Σ αB‖ / ‖W‖ — how much precision M bases recover.
func ApproxError(f *tensor.Filter, bases []*tensor.Filter, alphas [][]float32) float64 {
	perFilter := f.KH * f.KW * f.C
	var num, den float64
	for k := 0; k < f.K; k++ {
		off := k * perFilter
		for i := 0; i < perFilter; i++ {
			w := float64(f.Data[off+i])
			approx := 0.0
			for m := range bases {
				approx += float64(alphas[m][k]) * float64(bases[m].Data[off+i])
			}
			num += (w - approx) * (w - approx)
			den += w * w
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
