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
// parallelism over the K dimension. Dense always sweeps its packed
// weight rows.
type Dense struct {
	Shape sched.FCShape
	// Tier is the kernel tier the bgemm and the epilogue run at.
	Tier kernels.Width

	weights *bitpack.PackedMatrix // K rows × WordsFor(N) words (WPR), fused transform
	// act is the folded activation of the Bits output; nil = plain sign.
	act *Thresholds
	// epi is act pre-compiled into the branchless fused epilogue the
	// Bits output runs; rebuilt by SetThresholds, never per inference.
	epi *kernels.Epilogue
	// affine post-processes the Logits output; nil = raw inner products.
	affine *Affine
}

// DenseOut is where Dense.Forward writes, a value the caller fixes once
// (at build time) and passes on every call. Acc (len K) always receives
// the K inner products: on its own it is the accumulators-only form.
// Logits (len K), when set, receives them through the affine — the float
// classifier output. Bits (≥ WordsFor(K) words), when set, receives
// their signs through the folded activation, trailing lanes cleared — the
// packed input of the next fc layer (fc6 → sign → fc7).
type DenseOut struct {
	Acc    []int32
	Logits []float32
	Bits   []uint64
}

// SetThresholds installs a folded activation (batch-norm or bias) for
// the Bits output. Pass nil to restore the plain sign.
func (d *Dense) SetThresholds(th *Thresholds) error {
	if th != nil {
		if err := th.validate(d.Shape.K); err != nil {
			return err
		}
	}
	d.act = th
	d.epi = th.Epilogue(d.Shape.K, d.Tier)
	return nil
}

// SetAffine installs a float affine (batch-norm or bias) applied to the
// Logits output — the classifier-layer counterpart of SetThresholds.
func (d *Dense) SetAffine(a *Affine) error {
	if a != nil {
		if err := a.validate(d.Shape.K); err != nil {
			return err
		}
	}
	d.affine = a
	return nil
}

// NewDense builds a binary dense operator running at tier (a cap is
// resolved with Width.Tier) from the float weight matrix w (N×K).
// Binarization, bit-packing and transposition of w are fused into a
// single pass (paper Table III) and happen once, here.
func NewDense(shape sched.FCShape, tier kernels.Width, w *tensor.Matrix) (*Dense, error) {
	if w.Rows != shape.N || w.Cols != shape.K {
		return nil, fmt.Errorf("core: dense weights %v, want %dx%d", w, shape.N, shape.K)
	}
	return NewDensePacked(shape, tier, bitpack.PackMatrixBT(w, bitpack.WordsFor(shape.N)))
}

// NewDensePacked builds a binary dense operator from an already-packed
// (transposed) weight matrix of WordsFor(N) words per row, e.g. one
// deserialized from a model file.
func NewDensePacked(shape sched.FCShape, tier kernels.Width, pm *bitpack.PackedMatrix) (*Dense, error) {
	if pm.K != shape.K || pm.N != shape.N {
		return nil, fmt.Errorf("core: packed dense weights %v, want K=%d N=%d", pm, shape.K, shape.N)
	}
	if words := bitpack.WordsFor(shape.N); pm.WPR != words {
		return nil, fmt.Errorf("core: packed dense wpr=%d, dense wants %d", pm.WPR, words)
	}
	tier = tier.Tier()
	return &Dense{
		Shape: shape, Tier: tier, weights: pm,
		epi: (*Thresholds)(nil).Epilogue(shape.K, tier),
	}, nil
}

// Weights exposes the packed weight matrix (read-only use).
func (d *Dense) Weights() *bitpack.PackedMatrix { return d.weights }

// Activation returns the folded activation, or nil for the plain sign.
func (d *Dense) Activation() *Thresholds { return d.act }

// OutAffine returns the Logits output's affine, or nil for raw products.
func (d *Dense) OutAffine() *Affine { return d.affine }

// NewInput allocates a packed activation row for this operator.
func (d *Dense) NewInput() []uint64 { return make([]uint64, d.weights.WPR) }

// NewScratch allocates the K-length accumulators DenseOut.Acc holds.
// Allocate once at build time and reuse per call — the per-inference
// path itself stays allocation-free.
func (d *Dense) NewScratch() []int32 { return make([]int32, d.Shape.K) }

// Forward computes the K inner products of the packed activation row in
// (WordsFor(N) words, N valid bits) into out.Acc, then finishes them into
// out.Logits and out.Bits where those are set (see DenseOut). Every
// slice is checked before the bgemm runs; ec splits the K dimension.
func (d *Dense) Forward(in []uint64, out DenseOut, ec *exec.Ctx) {
	k := d.Shape.K
	if len(in) != d.weights.WPR {
		panic(fmt.Sprintf("core: dense input %d words, want %d", len(in), d.weights.WPR))
	}
	if len(out.Acc) != k {
		panic(fmt.Sprintf("core: dense accumulators len %d, want K=%d", len(out.Acc), k))
	}
	if out.Logits != nil && len(out.Logits) != k {
		panic(fmt.Sprintf("core: dense logits len %d, want K=%d", len(out.Logits), k))
	}
	if out.Bits != nil && len(out.Bits) < bitpack.WordsFor(k) {
		panic(fmt.Sprintf("core: dense bits %d words, want at least %d", len(out.Bits), bitpack.WordsFor(k)))
	}
	opts := kernels.BGemmOpts{Width: d.Tier}
	kernels.BGemmExec(in, 1, d.weights.Words, k, d.weights.WPR, d.Shape.N, out.Acc, opts, ec)
	if out.Logits != nil {
		d.affine.Apply(out.Acc, out.Logits)
	}
	if out.Bits != nil {
		d.epi.Pack(out.Acc, out.Bits)
	}
}
