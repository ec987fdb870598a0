package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// bit evaluates the folded activation for channel c at integer
// pre-activation d. The hot paths run the pre-compiled branchless
// Epilogue instead; this is the readable reference it is tested against.
func (th *Thresholds) bit(c int, d int32) bool {
	if th.Flip[c] {
		return d <= th.T[c]
	}
	return d >= th.T[c]
}

// Compose merges a later fold into an existing activation. It is only
// defined when the first activation is the identity (plain sign was not
// yet customized); BNN stacks apply at most one affine between the
// matmul and the sign, so composition beyond that is rejected.
func (th *Thresholds) Compose(next *Thresholds) (*Thresholds, error) {
	if th == nil {
		return next, nil
	}
	for c := range th.T {
		if th.T[c] != 0 || th.Flip[c] {
			return nil, fmt.Errorf("core: layer already has a folded activation")
		}
	}
	return next, nil
}

// bnSignRef computes sign(γ(d−μ)/σ+β) in float64 — the reference the
// folded thresholds must match on integer pre-activations.
func bnSignRef(d int32, gamma, beta, mean, variance float32, eps float64) bool {
	sigma := math.Sqrt(float64(variance) + eps)
	return float64(gamma)*(float64(d)-float64(mean))/sigma+float64(beta) >= 0
}

// randBN draws batch-norm parameters avoiding the measure-zero exact
// decision boundary on integers.
func randBN(r *workload.RNG, k int) (gamma, beta, mean, variance []float32) {
	gamma = make([]float32, k)
	beta = make([]float32, k)
	mean = make([]float32, k)
	variance = make([]float32, k)
	for c := 0; c < k; c++ {
		g := 0.5 + r.Float32() // (0.5, 1.5)
		if r.Uint64()&1 == 0 {
			g = -g // exercise the flipped branch
		}
		gamma[c] = g
		beta[c] = 2*r.Float32() - 1
		mean[c] = 10 * (2*r.Float32() - 1)
		variance[c] = 0.5 + 2*r.Float32()
	}
	return
}

func TestFoldBatchNormMatchesFloatReference(t *testing.T) {
	r := workload.NewRNG(80)
	const eps = 1e-5
	for trial := 0; trial < 20; trial++ {
		k := r.Intn(8) + 1
		gamma, beta, mean, variance := randBN(r, k)
		th, err := FoldBatchNorm(gamma, beta, mean, variance, eps)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < k; c++ {
			for d := int32(-50); d <= 50; d++ {
				want := bnSignRef(d, gamma[c], beta[c], mean[c], variance[c], eps)
				if got := th.bit(c, d); got != want {
					t.Fatalf("trial %d c=%d d=%d: folded %v reference %v (γ=%v β=%v μ=%v var=%v)",
						trial, c, d, got, want, gamma[c], beta[c], mean[c], variance[c])
				}
			}
		}
	}
}

// TestFoldBatchNormQuick is the property form over random parameters and
// pre-activations.
func TestFoldBatchNormQuick(t *testing.T) {
	const eps = 1e-5
	f := func(seed uint64, dd int16) bool {
		r := workload.NewRNG(seed)
		gamma, beta, mean, variance := randBN(r, 1)
		th, err := FoldBatchNorm(gamma, beta, mean, variance, eps)
		if err != nil {
			return false
		}
		d := int32(dd)
		return th.bit(0, d) == bnSignRef(d, gamma[0], beta[0], mean[0], variance[0], eps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldBatchNormZeroGamma(t *testing.T) {
	th, err := FoldBatchNorm([]float32{0, 0}, []float32{1, -1}, []float32{5, 5}, []float32{1, 1}, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	for d := int32(-100); d <= 100; d += 10 {
		if !th.bit(0, d) {
			t.Error("γ=0, β≥0 must be always-on")
		}
		if th.bit(1, d) {
			t.Error("γ=0, β<0 must be always-off")
		}
	}
}

func TestFoldBatchNormErrors(t *testing.T) {
	if _, err := FoldBatchNorm([]float32{1}, []float32{1, 2}, []float32{0}, []float32{1}, 1e-5); err == nil {
		t.Error("length mismatch: expected error")
	}
	if _, err := FoldBatchNorm([]float32{1}, []float32{0}, []float32{0}, []float32{-1}, 0); err == nil {
		t.Error("negative variance with eps 0: expected error")
	}
}

func TestFoldBias(t *testing.T) {
	th := FoldBias([]float32{0, 2.5, -3})
	// sign(d + b) ≥ 0 ⇔ d ≥ -b.
	cases := []struct {
		c    int
		d    int32
		want bool
	}{
		{0, 0, true}, {0, -1, false},
		{1, -2, true}, {1, -3, false}, // -b = -2.5 → d ≥ -2
		{2, 3, true}, {2, 2, false}, // -b = 3
	}
	for _, tc := range cases {
		if got := th.bit(tc.c, tc.d); got != tc.want {
			t.Errorf("c=%d d=%d: got %v want %v", tc.c, tc.d, got, tc.want)
		}
	}
}

func TestCompose(t *testing.T) {
	id := NewThresholds(3)
	next := FoldBias([]float32{1, 2, 3})
	got, err := id.Compose(next)
	if err != nil || got != next {
		t.Errorf("identity compose failed: %v", err)
	}
	if _, err := next.Compose(id); err == nil {
		t.Error("composing onto a non-identity activation must error")
	}
	var nilTh *Thresholds
	if got, err := nilTh.Compose(next); err != nil || got != next {
		t.Error("nil compose failed")
	}
}

func TestConvWithThresholdsMatchesFloatBN(t *testing.T) {
	r := workload.NewRNG(81)
	const eps = 1e-5
	cv, _, packed := buildConv(t, r, 6, 6, 128, 16, 3, 3, 1, 1)
	raw := tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC)
	cv.Forward(packed, raw, exec.Serial())

	gamma, beta, mean, variance := randBN(r, 16)
	th, err := FoldBatchNorm(gamma, beta, mean, variance, eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := cv.SetThresholds(th); err != nil {
		t.Fatal(err)
	}
	pOut := bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, 16, 1, 0, 0)
	cv.ForwardPacked(packed, nil, pOut, exec.Threads(2))
	got := bitpack.Unpack(pOut)

	for h := 0; h < raw.H; h++ {
		for w := 0; w < raw.W; w++ {
			for c := 0; c < 16; c++ {
				want := float32(-1)
				if bnSignRef(int32(raw.At(h, w, c)), gamma[c], beta[c], mean[c], variance[c], eps) {
					want = 1
				}
				if got.At(h, w, c) != want {
					t.Fatalf("(%d,%d,%d): folded %v reference %v", h, w, c, got.At(h, w, c), want)
				}
			}
		}
	}

	// Restoring the plain sign recovers the original behaviour.
	if err := cv.SetThresholds(nil); err != nil {
		t.Fatal(err)
	}
	cv.ForwardPacked(packed, nil, pOut, exec.Serial())
	if !bitpack.Unpack(pOut).Equal(raw.Sign()) {
		t.Error("SetThresholds(nil) did not restore the plain sign")
	}
}

func TestConvSetThresholdsValidates(t *testing.T) {
	r := workload.NewRNG(82)
	cv, _, _ := buildConv(t, r, 5, 5, 64, 4, 3, 3, 1, 1)
	if err := cv.SetThresholds(NewThresholds(5)); err == nil {
		t.Error("wrong channel count: expected error")
	}
}

func TestDenseWithThresholdsAndAffine(t *testing.T) {
	r := workload.NewRNG(83)
	const eps = 1e-5
	n, k := 128, 12
	shape, _ := sched.InferFC(n, k)
	tier := feat().MaxWidth
	w := workload.PM1Matrix(r, n, k)
	d, err := NewDense(shape, tier, w)
	if err != nil {
		t.Fatal(err)
	}
	inVals := make([]float32, n)
	for i := range inVals {
		inVals[i] = r.PM1()
	}
	in := d.NewInput()
	bitpack.PackVectorInto(in, inVals)
	raw := make([]int32, k)
	d.Forward(in, DenseOut{Acc: raw}, exec.Serial())

	gamma, beta, mean, variance := randBN(r, k)

	// Packed path: folded thresholds.
	th, err := FoldBatchNorm(gamma, beta, mean, variance, eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetThresholds(th); err != nil {
		t.Fatal(err)
	}
	packedOut := make([]uint64, bitpack.WordsFor(k))
	d.Forward(in, DenseOut{Acc: d.NewScratch(), Bits: packedOut}, exec.Serial())
	bits := bitpack.UnpackVector(packedOut, k)
	for c := 0; c < k; c++ {
		want := float32(-1)
		if bnSignRef(raw[c], gamma[c], beta[c], mean[c], variance[c], eps) {
			want = 1
		}
		if bits[c] != want {
			t.Fatalf("packed c=%d: got %v want %v", c, bits[c], want)
		}
	}

	// Float path: affine.
	aff, err := NewAffineFromBatchNorm(gamma, beta, mean, variance, eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetAffine(aff); err != nil {
		t.Fatal(err)
	}
	logits := make([]float32, k)
	d.Forward(in, DenseOut{Acc: d.NewScratch(), Logits: logits}, exec.Serial())
	for c := 0; c < k; c++ {
		sigma := float32(math.Sqrt(float64(variance[c]) + eps))
		want := gamma[c]/sigma*(float32(raw[c])-mean[c]) + beta[c]
		if diff := math.Abs(float64(logits[c] - want)); diff > 1e-3 {
			t.Fatalf("affine c=%d: got %v want %v", c, logits[c], want)
		}
	}

	if err := d.SetAffine(&Affine{Scale: make([]float32, 3)}); err == nil {
		t.Error("wrong-size affine: expected error")
	}
	if err := d.SetThresholds(NewThresholds(3)); err == nil {
		t.Error("wrong-size thresholds: expected error")
	}
}

func TestNewAffineFromBias(t *testing.T) {
	a := NewAffineFromBias([]float32{1.5, -2})
	out := make([]float32, 2)
	a.Apply([]int32{10, 10}, out)
	if out[0] != 11.5 || out[1] != 8 {
		t.Errorf("affine bias apply = %v", out)
	}
}
