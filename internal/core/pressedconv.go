package core

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// maxKH bounds the filter height NewConvPacked accepts.
const maxKH = 16

// Conv is a PressedConv binary convolution operator: filters are packed
// once at construction, inputs arrive as channel-packed bit tensors, and
// every multiply-accumulate is an XOR + popcount. Each output pixel is
// one gather of its receptive field into a contiguous window, one kernel
// sweep of that window over the packed filters, read in place, on the
// machine's widest tier (Tier) — over the bank's distinct filters only
// when it folds (compress.go) — and one threshold-pack epilogue. Each
// input pixel is WordsFor(InC) words, the packed filter's WPP.
type Conv struct {
	Shape sched.ConvShape
	// Tier is the kernel tier every sweep and epilogue runs at.
	Tier kernels.Width

	filter *bitpack.PackedFilter
	// validLanes is KH*KW*C, the true lane count N of Equation 1 for a
	// full filter application; channel-pad lanes are zero in both
	// operands and contribute nothing.
	validLanes int
	// rowLen is KW*WPP, the contiguous word count of one filter tap row
	// (and of the matching input row segment).
	rowLen int
	// act is the folded activation of the packed path; nil means the
	// plain Equation 3 sign.
	act *Thresholds
	// epi is act pre-compiled into the fused epilogue over raw
	// XOR+popcount sums, which the sweep's counts are thresholded from
	// directly. Rebuilt by SetThresholds, never per inference.
	epi *kernels.Epilogue
	// distinct is the bank's distinct-filter count F, measured at
	// construction. When K/F reaches kernels.CompressMinRatio the bank
	// folds: folded holds the F distinct filters and reps maps each
	// channel to its filter there (kernels.DistinctFilters); both are nil
	// otherwise. Pure runtime state, never serialized.
	distinct int
	folded   []uint64
	reps     []int32
}

// SetThresholds installs a folded activation (batch-norm or bias) for
// ForwardPacked. Pass nil to restore the plain sign.
func (cv *Conv) SetThresholds(th *Thresholds) error {
	if th != nil {
		if err := th.validate(cv.Shape.K); err != nil {
			return err
		}
	}
	cv.act = th
	cv.epi = th.Epilogue(cv.Shape.K, cv.Tier).ForPopcounts(int32(cv.validLanes))
	return nil
}

// NewConv builds a PressedConv operator whose sweeps run at tier (a cap
// is resolved with Width.Tier). The filter bank's K/KH/KW/C must match
// shape; its weights are binarized (sign) and bit-packed here, once — the
// paper's network-level "binarization and bit-packing of weights during
// network initialization".
func NewConv(shape sched.ConvShape, tier kernels.Width, f *tensor.Filter) (*Conv, error) {
	if f.K != shape.K || f.KH != shape.KH || f.KW != shape.KW || f.C != shape.InC {
		return nil, fmt.Errorf("core: filter %v does not match conv shape %+v", f, shape)
	}
	return NewConvPacked(shape, tier, bitpack.PackFilter(f, bitpack.WordsFor(shape.InC)))
}

// NewConvPacked builds a PressedConv operator from an already-packed
// filter bank (e.g. one deserialized from a model file). The packed
// filter's geometry must match the shape, with WordsFor(InC) words per
// tap.
func NewConvPacked(shape sched.ConvShape, tier kernels.Width, pf *bitpack.PackedFilter) (*Conv, error) {
	if pf.K != shape.K || pf.KH != shape.KH || pf.KW != shape.KW || pf.C != shape.InC {
		return nil, fmt.Errorf("core: packed filter %v does not match conv shape %+v", pf, shape)
	}
	if words := bitpack.WordsFor(shape.InC); pf.WPP != words {
		return nil, fmt.Errorf("core: packed filter wpp=%d, conv wants %d", pf.WPP, words)
	}
	if shape.KH > maxKH {
		return nil, fmt.Errorf("core: filter height %d exceeds supported maximum %d", shape.KH, maxKH)
	}
	cv := &Conv{
		Shape:      shape,
		Tier:       tier.Tier(),
		filter:     pf,
		validLanes: shape.KH * shape.KW * shape.InC,
		rowLen:     shape.KW * pf.WPP,
	}
	if err := cv.SetThresholds(nil); err != nil {
		return nil, err
	}
	fstride := shape.KH * cv.rowLen
	reps, firsts := kernels.DistinctFilters(pf.Words, shape.K, fstride)
	cv.distinct = len(firsts)
	if float64(shape.K) >= kernels.CompressMinRatio*float64(cv.distinct) {
		cv.folded, cv.reps = kernels.GatherFilters(pf.Words, fstride, firsts), reps
	}
	return cv, nil
}

// Filter exposes the packed filter bank (read-only use).
func (cv *Conv) Filter() *bitpack.PackedFilter { return cv.filter }

// Activation returns the folded activation, or nil for the plain sign.
func (cv *Conv) Activation() *Thresholds { return cv.act }

// NewInput allocates a packed input buffer with the margins this operator
// needs for zero-cost padding: interior InH×InW×InC, margins = Pad.
func (cv *Conv) NewInput() *bitpack.Packed {
	return bitpack.NewPacked(cv.Shape.InH, cv.Shape.InW, cv.Shape.InC, cv.filter.WPP, cv.Shape.Pad, cv.Shape.Pad)
}

// checkInput validates that in is a legal input buffer for this operator.
func (cv *Conv) checkInput(in *bitpack.Packed) {
	s := cv.Shape
	if in.H != s.InH || in.W != s.InW || in.C != s.InC {
		panic(fmt.Sprintf("core: conv input %v, want %dx%dx%d", in, s.InH, s.InW, s.InC))
	}
	if in.WPP != cv.filter.WPP {
		panic(fmt.Sprintf("core: conv input wpp=%d, conv wants %d", in.WPP, cv.filter.WPP))
	}
	if in.MarginH < s.Pad || in.MarginW < s.Pad {
		panic(fmt.Sprintf("core: conv input margins %dx%d < pad %d", in.MarginH, in.MarginW, s.Pad))
	}
}

// convScratch is one worker chunk's gather window and accumulators. The
// arrays cover every VGG layer (S ≤ 72 words, K ≤ 512 filters) and sit in
// the chunk's frame — the kernels are reached by static calls, so nothing
// here escapes; a larger operator pays one allocation pair per chunk.
type convScratch struct {
	win [80]uint64
	acc [512]int32
}

// slices returns the chunk's S-word window and K-length accumulators.
func (sc *convScratch) slices(cv *Conv) (win []uint64, acc []int32) {
	S, K := cv.Shape.KH*cv.rowLen, cv.Shape.K
	if S > len(sc.win) || K > len(sc.acc) {
		return make([]uint64, S), make([]int32, K) // only an operator beyond the stack scratch allocates: one pair per worker chunk
	}
	return sc.win[:S], sc.acc[:K]
}

// gather copies the receptive field whose top-left input pixel is
// (y0, x0) — KH row segments of rowLen contiguous words each, pixels
// along a row being adjacent in memory — into the contiguous window win,
// in the packed filters' tap order.
func (cv *Conv) gather(in *bitpack.Packed, y0, x0 int, win []uint64) {
	rowLen := cv.rowLen
	for i := 0; i < cv.Shape.KH && len(win) >= rowLen; i++ {
		off := in.PixelOffset(y0+i, x0)
		copy(win[:rowLen], in.Words[off:off+rowLen])
		win = win[rowLen:]
	}
}

// Forward computes raw pre-activation outputs into out (OutH×OutW×K).
// Outputs are exact integer inner products stored as float32. ec
// controls the multi-core split over the fused OutH·OutW dimension.
// Forward always sweeps the whole packed bank: it is the reference the
// packed path (folded or not) is checked against.
//
//bitflow:keep test oracle: core tests check ForwardPacked and the filter fold against it
func (cv *Conv) Forward(in *bitpack.Packed, out *tensor.Tensor, ec *exec.Ctx) {
	cv.checkInput(in)
	s := cv.Shape
	if out.H != s.OutH || out.W != s.OutW || out.C != s.OutC {
		panic(fmt.Sprintf("core: conv output %v, want %dx%dx%d", out, s.OutH, s.OutW, s.OutC))
	}
	n32 := int32(cv.validLanes)
	fw := cv.filter.Words
	tier := cv.Tier
	total := s.OutH * s.OutW
	ec.ParallelFor(total, func(start, end int) {
		var sc convScratch
		win, acc := sc.slices(cv)
		for idx := start; idx < end; idx++ {
			y := idx / s.OutW
			x := idx % s.OutW
			cv.gather(in, y*s.Stride-s.Pad, x*s.Stride-s.Pad, win)
			kernels.Sweep(tier, win, fw, acc)
			dst := out.Pixel(y, x)
			for k, pop := range acc {
				dst[k] = float32(n32 - 2*pop)
			}
		}
	})
}

// ForwardPacked is the conv → threshold → binarize → max-pool forward:
// the folded activation's bits go straight into out's interior
// (zero-cost padding for the next layer: out's margins stay untouched).
// Each out pixel is one window of conv positions, the first overwriting
// and the rest ORing threshold bits in, so a pooled conv's plane never
// materializes. pl must satisfy CanFusePool, and out takes its output
// geometry; a nil pl makes every conv position its own 1×1 window, with
// out OutH×OutW and C = K.
//
// A budget of one runs the whole plane as one inline chunk without
// building the dispatch closure, so a serial forward allocates nothing.
func (cv *Conv) ForwardPacked(in *bitpack.Packed, pl *Pool, out *bitpack.Packed, ec *exec.Ctx) {
	p := cv.checkWindow(in, pl, out)
	total := p.OutH * p.OutW
	if ec.InlineChunk(total) {
		cv.windowRange(in, p, out, 0, total)
		return
	}
	ec.ParallelFor(total, func(start, end int) {
		cv.windowRange(in, p, out, start, end)
	})
}

// checkWindow validates one ForwardPacked argument triple and returns the
// output window: pl's shape, or the 1×1 window over the conv's output.
func (cv *Conv) checkWindow(in *bitpack.Packed, pl *Pool, out *bitpack.Packed) sched.PoolShape {
	cv.checkInput(in)
	s := cv.Shape
	p := sched.PoolShape{InH: s.OutH, InW: s.OutW, InC: s.OutC, KH: 1, KW: 1, Stride: 1, OutH: s.OutH, OutW: s.OutW, OutC: s.OutC}
	if pl != nil {
		if !cv.CanFusePool(pl.Shape) {
			panic(fmt.Sprintf("core: pool %+v cannot fuse into conv %+v", pl.Shape, s))
		}
		p = pl.Shape
	}
	if out.H != p.OutH || out.W != p.OutW || out.C != p.OutC {
		panic(fmt.Sprintf("core: conv packed output %v, want %dx%dx%d", out, p.OutH, p.OutW, p.OutC))
	}
	return p
}

// windowRange is ForwardPacked over output pixels [start, end), one
// worker chunk on its own stack scratch: the first position of each
// window overwrites, the rest OR in.
func (cv *Conv) windowRange(in *bitpack.Packed, p sched.PoolShape, out *bitpack.Packed, start, end int) {
	var sc convScratch
	win, acc := sc.slices(cv)
	s := cv.Shape
	for idx := start; idx < end; idx++ {
		py := idx / p.OutW
		px := idx % p.OutW
		dst := out.PixelWords(py, px)
		for i := 0; i < p.KH; i++ {
			cy := py*p.Stride + i
			for j := 0; j < p.KW; j++ {
				cx := px*p.Stride + j
				cv.gather(in, cy*s.Stride-s.Pad, cx*s.Stride-s.Pad, win)
				cv.thresholdWindow(win, acc, dst, i+j > 0)
			}
		}
	}
}

// thresholdWindow is the accumulate → threshold → set-bit pass for one
// gathered window: one sweep of win over the conv's bank — all K filters,
// or the F distinct ones with their counts then copied out to all K
// channels — thresholded in the count domain. The bits overwrite dst
// (trailing words cleared), or OR into it when or is set: the remaining
// positions of a pool window, max-pool commuting with sign.
func (cv *Conv) thresholdWindow(win []uint64, acc []int32, dst []uint64, or bool) {
	if cv.reps == nil {
		kernels.Sweep(cv.Tier, win, cv.filter.Words, acc)
	} else {
		kernels.Sweep(cv.Tier, win, cv.folded, acc[:cv.distinct])
		kernels.Expand(cv.reps, acc)
	}
	if or {
		cv.epi.PackOr(acc, dst)
	} else {
		cv.epi.Pack(acc, dst)
	}
}

// CanFusePool reports whether a max-pool with shape ps can fuse into this
// conv's epilogue: ps must consume exactly this conv's output geometry
// with non-overlapping windows (stride ≥ window in both dimensions), so
// every conv pixel belongs to at most one window and the fused sweep
// computes it exactly once. Max-pool commutes with sign — the max of ±1
// values has the sign bit OR — so ORing the per-position threshold bits
// is bit-exact against conv-then-pool.
func (cv *Conv) CanFusePool(ps sched.PoolShape) bool {
	s := cv.Shape
	return ps.InH == s.OutH && ps.InW == s.OutW && ps.InC == s.OutC &&
		ps.Stride >= ps.KH && ps.Stride >= ps.KW
}
