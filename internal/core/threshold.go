package core

import (
	"fmt"
	"math"

	"bitflow/internal/kernels"
)

// Thresholds generalizes the sign activation of the binarized path.
//
// A real BNN layer is conv → batch-norm → sign. At inference the
// batch-norm affine is constant, so
//
//	sign(γ·(d − μ)/σ + β)
//
// over the integer inner product d collapses to an integer comparison per
// output channel: bit = (d ≥ T) when γ > 0, bit = (d ≤ T) when γ < 0
// (the standard BNN "threshold" folding, cf. XNOR-Net / FINN, which the
// paper's related work builds on). A plain bias b folds the same way
// with γ = 1, β = b. The zero value (T = 0, Flip = false everywhere, or
// a nil *Thresholds) is exactly the paper's Equation 3 sign.
type Thresholds struct {
	// T is the per-channel integer threshold.
	T []int32
	// Flip marks channels whose comparison is inverted (γ < 0).
	Flip []bool
}

// NewThresholds returns the identity activation (plain sign) over k
// channels.
func NewThresholds(k int) *Thresholds {
	return &Thresholds{T: make([]int32, k), Flip: make([]bool, k)}
}

// Epilogue compiles the activation into the fused form the kernels
// consume, to run on the given kernel tier (the operator's Tier). A
// nil receiver yields the plain sign over k channels. Called once at
// operator construction / SetThresholds time.
func (th *Thresholds) Epilogue(k int, tier kernels.Width) *kernels.Epilogue {
	var e *kernels.Epilogue
	if th == nil {
		e = kernels.NewSignEpilogue(k)
	} else {
		e = kernels.NewEpilogue(th.T, th.Flip)
	}
	e.Tier = tier.Tier()
	return e
}

// validate checks the channel count.
func (th *Thresholds) validate(k int) error {
	if len(th.T) != k || len(th.Flip) != k {
		return fmt.Errorf("core: thresholds for %d channels, operator has %d", len(th.T), k)
	}
	return nil
}

// FoldBatchNorm computes the thresholds equivalent to batch-norm
// followed by sign: sign(γ·(d−μ)/σ + β) with σ = √(variance + eps).
// Channels with γ = 0 degenerate to a constant sign(β); they are encoded
// as an always-true or always-false comparison.
func FoldBatchNorm(gamma, beta, mean, variance []float32, eps float64) (*Thresholds, error) {
	k := len(gamma)
	if len(beta) != k || len(mean) != k || len(variance) != k {
		return nil, fmt.Errorf("core: batch-norm parameter lengths differ (%d/%d/%d/%d)",
			len(gamma), len(beta), len(mean), len(variance))
	}
	th := NewThresholds(k)
	for c := 0; c < k; c++ {
		g := float64(gamma[c])
		sigma := math.Sqrt(float64(variance[c]) + eps)
		if !(sigma > 0) { // catches NaN from negative variance too
			return nil, fmt.Errorf("core: channel %d has non-positive σ", c)
		}
		switch {
		case g > 0:
			// d ≥ μ − β·σ/γ, integer d → ceil of the real bound.
			tau := float64(mean[c]) - float64(beta[c])*sigma/g
			th.T[c] = int32(math.Ceil(tau))
			th.Flip[c] = false
		case g < 0:
			// d ≤ μ − β·σ/γ → floor of the real bound.
			tau := float64(mean[c]) - float64(beta[c])*sigma/g
			th.T[c] = int32(math.Floor(tau))
			th.Flip[c] = true
		default: // γ == 0: activation is sign(β), a constant.
			if beta[c] >= 0 {
				th.T[c] = math.MinInt32 // d ≥ -inf: always 1
				th.Flip[c] = false
			} else {
				th.T[c] = math.MinInt32 // d ≤ -inf: always 0
				th.Flip[c] = true
			}
		}
	}
	return th, nil
}

// FoldBias computes the thresholds equivalent to adding a per-channel
// bias before the sign: sign(d + b) ⇔ d ≥ ⌈−b⌉.
func FoldBias(bias []float32) *Thresholds {
	th := NewThresholds(len(bias))
	for c, b := range bias {
		th.T[c] = int32(math.Ceil(float64(-b)))
	}
	return th
}

// Affine is the float counterpart used on the final (logit-emitting)
// layer: out = Scale[c]·(d − Mean[c]) + Shift[c]. Batch-norm on the
// classifier output folds here instead of into thresholds, because the
// logits stay float.
type Affine struct {
	Scale []float32
	Mean  []float32
	Shift []float32
}

// NewAffineFromBatchNorm builds the affine for γ/β/μ/σ parameters.
func NewAffineFromBatchNorm(gamma, beta, mean, variance []float32, eps float64) (*Affine, error) {
	k := len(gamma)
	if len(beta) != k || len(mean) != k || len(variance) != k {
		return nil, fmt.Errorf("core: batch-norm parameter lengths differ")
	}
	a := &Affine{Scale: make([]float32, k), Mean: make([]float32, k), Shift: make([]float32, k)}
	for c := 0; c < k; c++ {
		sigma := math.Sqrt(float64(variance[c]) + eps)
		if !(sigma > 0) { // catches NaN from negative variance too
			return nil, fmt.Errorf("core: channel %d has non-positive σ", c)
		}
		a.Scale[c] = float32(float64(gamma[c]) / sigma)
		a.Mean[c] = mean[c]
		a.Shift[c] = beta[c]
	}
	return a, nil
}

// NewAffineFromBias builds the affine adding a plain bias.
func NewAffineFromBias(bias []float32) *Affine {
	k := len(bias)
	a := &Affine{Scale: make([]float32, k), Mean: make([]float32, k), Shift: make([]float32, k)}
	for c := 0; c < k; c++ {
		a.Scale[c] = 1
		a.Shift[c] = bias[c]
	}
	return a
}

// Apply evaluates the affine over integer pre-activations. A nil affine
// is the identity: out receives d as floats.
func (a *Affine) Apply(d []int32, out []float32) {
	if a == nil {
		for c, v := range d {
			out[c] = float32(v)
		}
		return
	}
	for c, v := range d {
		out[c] = a.Scale[c]*(float32(v)-a.Mean[c]) + a.Shift[c]
	}
}

// validate checks the channel count.
func (a *Affine) validate(k int) error {
	if len(a.Scale) != k || len(a.Mean) != k || len(a.Shift) != k {
		return fmt.Errorf("core: affine for %d channels, operator has %d", len(a.Scale), k)
	}
	return nil
}
