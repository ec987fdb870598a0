package core

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// FloatConv is a full-precision convolution whose output is sign-packed —
// the mixed-precision first layer. The paper points at exactly this
// remedy for BNN accuracy loss ("Zhuang's work that compensates BNN's
// accuracy loss by keeping certain layers in full precision"): the first
// layer sees raw pixels, which binarize poorly, so real BNN deployments
// often keep it in float. FloatConv consumes the float input directly,
// applies an optional per-channel affine (bias or folded batch-norm) and
// the sign, and emits the packed bits the binary layers downstream eat.
//
// Spatial padding uses the float convention (pad value 0), unlike the
// binary layers whose bit-level padding means −1.
type FloatConv struct {
	Shape sched.ConvShape

	filter *tensor.Filter
	affine *Affine // optional, applied before the sign
}

// NewFloatConv builds the operator; the filter is retained in float (it
// is part of the model and serialized as floats).
func NewFloatConv(shape sched.ConvShape, f *tensor.Filter) (*FloatConv, error) {
	if f.K != shape.K || f.KH != shape.KH || f.KW != shape.KW || f.C != shape.InC {
		return nil, fmt.Errorf("core: filter %v does not match float conv shape %+v", f, shape)
	}
	return &FloatConv{Shape: shape, filter: f.Clone()}, nil
}

// Filter exposes the float filter bank (read-only use).
func (fc *FloatConv) Filter() *tensor.Filter { return fc.filter }

// OutAffine returns the pre-sign affine, or nil.
func (fc *FloatConv) OutAffine() *Affine { return fc.affine }

// SetAffine installs the per-channel affine applied before the sign.
func (fc *FloatConv) SetAffine(a *Affine) error {
	if a != nil {
		if err := a.validate(fc.Shape.K); err != nil {
			return err
		}
	}
	fc.affine = a
	return nil
}

// Forward convolves the float input and writes sign bits into out's
// interior (margins untouched, tail lanes cleared). ec splits the
// fused OutH·OutW dimension; a budget of one runs the whole plane as one
// inline chunk without building the dispatch closure, so a serial
// forward of a stem with K ≤ 512 allocates nothing.
func (fc *FloatConv) Forward(in *tensor.Tensor, out *bitpack.Packed, ec *exec.Ctx) {
	s := fc.Shape
	if in.H != s.InH || in.W != s.InW || in.C != s.InC {
		panic(fmt.Sprintf("core: float conv input %v, want %dx%dx%d", in, s.InH, s.InW, s.InC))
	}
	if out.H != s.OutH || out.W != s.OutW || out.C != s.OutC {
		panic(fmt.Sprintf("core: float conv output %v, want %dx%dx%d", out, s.OutH, s.OutW, s.OutC))
	}
	total := s.OutH * s.OutW
	if ec.InlineChunk(total) {
		fc.pixelRange(in, out, 0, total)
		return
	}
	ec.ParallelFor(total, func(start, end int) {
		fc.pixelRange(in, out, start, end)
	})
}

// pixelRange is Forward over output pixels [start, end), one worker
// chunk. Its K dot products sit in the chunk's frame up to 512 filters,
// as a conv's accumulators do; a wider stem allocates them per chunk.
func (fc *FloatConv) pixelRange(in *tensor.Tensor, out *bitpack.Packed, start, end int) {
	var buf [512]float32
	K := fc.Shape.K
	var dots []float32
	if K <= len(buf) {
		dots = buf[:K]
	} else {
		dots = make([]float32, K)
	}
	for idx := start; idx < end; idx++ {
		y := idx / fc.Shape.OutW
		x := idx % fc.Shape.OutW
		fc.pixel(in, y, x, dots)
		fc.packPixel(dots, out.PixelWords(y, x))
	}
}

// pixel computes the K float inner products of output pixel (y, x).
func (fc *FloatConv) pixel(in *tensor.Tensor, y, x int, dst []float32) {
	s := fc.Shape
	y0 := y*s.Stride - s.Pad
	x0 := x*s.Stride - s.Pad
	f := fc.filter
	for k := 0; k < s.K; k++ {
		var acc float32
		for i := 0; i < s.KH; i++ {
			sy := y0 + i
			if sy < 0 || sy >= in.H {
				continue // float zero padding contributes nothing
			}
			for j := 0; j < s.KW; j++ {
				sx := x0 + j
				if sx < 0 || sx >= in.W {
					continue
				}
				px := in.Pixel(sy, sx)
				tap := f.Tap(k, i, j)
				var t0, t1 float32
				c := 0
				for ; c+2 <= len(px); c += 2 {
					t0 += px[c] * tap[c]
					t1 += px[c+1] * tap[c+1]
				}
				acc += t0 + t1
				for ; c < len(px); c++ {
					acc += px[c] * tap[c]
				}
			}
		}
		dst[k] = acc
	}
}

// packPixel applies the affine and sign, writing packed bits.
func (fc *FloatConv) packPixel(dots []float32, dst []uint64) {
	a := fc.affine
	var word uint64
	wi := 0
	for k, v := range dots {
		if a != nil {
			v = a.Scale[k]*(v-a.Mean[k]) + a.Shift[k]
		}
		if v >= 0 {
			word |= 1 << uint(k%bitpack.WordBits)
		}
		if (k+1)%bitpack.WordBits == 0 {
			dst[wi] = word
			word = 0
			wi++
		}
	}
	if len(dots)%bitpack.WordBits != 0 {
		dst[wi] = word
		wi++
	}
	for ; wi < len(dst); wi++ {
		dst[wi] = 0
	}
}
