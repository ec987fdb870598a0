package core

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// Dense is the binary fully connected operator: a binary matrix-matrix
// multiplication with M = 1 (paper §III-C). Vector parallelism runs over
// the N dimension (inside the XOR+popcount kernel), multi-core
// parallelism over the K dimension.
type Dense struct {
	Shape sched.FCShape
	Plan  sched.Plan // selected over N

	weights *bitpack.PackedMatrix // K rows × Plan.Words, fused transform
	// act is the folded activation of the packed path; nil = plain sign.
	act *Thresholds
	// epi is act pre-compiled into the branchless fused epilogue
	// ForwardPacked runs; rebuilt by SetThresholds, never per inference.
	epi *kernels.Epilogue
	// affine post-processes the float path (ForwardFloat); nil = raw
	// inner products.
	affine *Affine
	// press is the kernel-compression plan compiled from the packed
	// weight matrix at construction when its duplication ratio clears
	// kernels.CompressMinRatio (nil otherwise): when set, Forward runs
	// the compressed bgemm. pressStats always holds the measured
	// analysis. Pure runtime state, never serialized.
	press      *kernels.CompressPlan
	pressStats kernels.CompressStats
}

// SetThresholds installs a folded activation (batch-norm or bias) for
// ForwardPacked. Pass nil to restore the plain sign.
func (d *Dense) SetThresholds(th *Thresholds) error {
	if th != nil {
		if err := th.validate(d.Shape.K); err != nil {
			return err
		}
	}
	d.act = th
	d.epi = th.Epilogue(d.Shape.K, d.Plan.Tier)
	return nil
}

// SetAffine installs a float affine (batch-norm or bias) applied by
// ForwardFloat — the classifier-layer counterpart of SetThresholds.
func (d *Dense) SetAffine(a *Affine) error {
	if a != nil {
		if err := a.validate(d.Shape.K); err != nil {
			return err
		}
	}
	d.affine = a
	return nil
}

// NewDense builds a binary dense operator from the float weight matrix w
// (N×K). Binarization, bit-packing and transposition of w are fused into
// a single pass (paper Table III) and happen once, here.
func NewDense(shape sched.FCShape, plan sched.Plan, w *tensor.Matrix) (*Dense, error) {
	if w.Rows != shape.N || w.Cols != shape.K {
		return nil, fmt.Errorf("core: dense weights %v, want %dx%d", w, shape.N, shape.K)
	}
	if plan.C != shape.N {
		return nil, fmt.Errorf("core: plan built for C=%d, dense has N=%d", plan.C, shape.N)
	}
	return NewDensePacked(shape, plan, bitpack.PackMatrixBT(w, plan.Words))
}

// NewDensePacked builds a binary dense operator from an already-packed
// (transposed) weight matrix, e.g. one deserialized from a model file.
func NewDensePacked(shape sched.FCShape, plan sched.Plan, pm *bitpack.PackedMatrix) (*Dense, error) {
	if pm.K != shape.K || pm.N != shape.N {
		return nil, fmt.Errorf("core: packed dense weights %v, want K=%d N=%d", pm, shape.K, shape.N)
	}
	if plan.C != shape.N {
		return nil, fmt.Errorf("core: plan built for C=%d, dense has N=%d", plan.C, shape.N)
	}
	if pm.WPR != plan.Words {
		return nil, fmt.Errorf("core: packed dense wpr=%d, plan wants %d", pm.WPR, plan.Words)
	}
	d := &Dense{Shape: shape, Plan: plan, weights: pm, epi: (*Thresholds)(nil).Epilogue(shape.K, plan.Tier)}
	d.pressStats = kernels.AnalyzeCompression(pm.Words, shape.K, pm.WPR)
	if d.pressStats.Selectable() {
		d.press = kernels.BuildCompressPlan(pm.Words, shape.K, pm.WPR)
	}
	return d, nil
}

// Weights exposes the packed weight matrix (read-only use).
func (d *Dense) Weights() *bitpack.PackedMatrix { return d.weights }

// Activation returns the folded activation, or nil for the plain sign.
func (d *Dense) Activation() *Thresholds { return d.act }

// OutAffine returns the float-path affine, or nil for raw products.
func (d *Dense) OutAffine() *Affine { return d.affine }

// NewInput allocates a packed activation row for this operator.
func (d *Dense) NewInput() []uint64 { return make([]uint64, d.Plan.Words) }

// NewScratch allocates the K-length pre-activation scratch ForwardFloat
// and ForwardPacked require. Allocate once at build time and reuse per
// call — the per-inference path itself stays allocation-free.
func (d *Dense) NewScratch() []int32 { return make([]int32, d.Shape.K) }

// Forward computes the K inner products of the packed activation row in
// (Plan.Words words, N valid bits) into out (len K). ec splits the
// K dimension; an operator holding a compression plan walks it instead
// (one row, so serially).
func (d *Dense) Forward(in []uint64, out []int32, ec *exec.Ctx) {
	if len(in) != d.Plan.Words {
		panic(fmt.Sprintf("core: dense input %d words, want %d", len(in), d.Plan.Words))
	}
	if len(out) != d.Shape.K {
		panic(fmt.Sprintf("core: dense output len %d, want K=%d", len(out), d.Shape.K))
	}
	if d.press != nil {
		kernels.BGemmCompressedExec(in, 1, d.press, d.Plan.Words, d.Shape.N, out, ec)
		return
	}
	opts := kernels.BGemmOpts{Width: d.Plan.Tier}
	kernels.BGemmExec(in, 1, d.weights.Words, d.Shape.K, d.Plan.Words, d.Shape.N, out, opts, ec)
}

// ForwardFloat is Forward plus a float conversion and the optional
// affine (batch-norm/bias) post-processing — the final classifier path.
// tmp is caller-owned pre-activation scratch (len K, see NewScratch), so
// repeated inferences allocate nothing.
func (d *Dense) ForwardFloat(in []uint64, out []float32, tmp []int32, ec *exec.Ctx) {
	if len(tmp) != d.Shape.K {
		panic(fmt.Sprintf("core: dense scratch len %d, want K=%d", len(tmp), d.Shape.K))
	}
	d.Forward(in, tmp, ec)
	if d.affine != nil {
		d.affine.Apply(tmp, out)
		return
	}
	for i, v := range tmp {
		out[i] = float32(v)
	}
}

// ForwardPacked computes the K inner products and writes their sign bits
// into out (≥ WordsFor(K) words, trailing lanes cleared) — the fused
// activation for fc→fc chains (fc6 → sign → fc7). tmp is caller-owned
// pre-activation scratch (len K, see NewScratch).
func (d *Dense) ForwardPacked(in []uint64, out []uint64, tmp []int32, ec *exec.Ctx) {
	if len(tmp) != d.Shape.K {
		panic(fmt.Sprintf("core: dense scratch len %d, want K=%d", len(tmp), d.Shape.K))
	}
	d.Forward(in, tmp, ec)
	if len(out) < bitpack.WordsFor(d.Shape.K) {
		panic("core: dense packed output too short")
	}
	d.epi.Pack(tmp, out)
}
