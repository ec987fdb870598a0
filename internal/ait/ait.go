// Package ait implements the arithmetic-intensity analysis of paper
// §III-A (Equations 4–8): the intrinsic AIT of a convolution, the memory
// blow-up of the image-to-column unfold, and the resulting bound on the
// fraction of intrinsic AIT that the image-to-column method can achieve —
// for both full-precision and bit-packed (binary) convolution.
package ait

import "fmt"

// Conv describes one convolution for the analytical model, using the
// paper's §II-B notation: input H×W with C channels, K filters of h×w.
type Conv struct {
	H, W, C int
	K       int
	KH, KW  int
}

// Ops returns A, the number of arithmetic operations (Equation 4):
// 2·C·H·W·K·h·w (each output tap is one multiply plus one add).
func (c Conv) Ops() float64 {
	return 2 * float64(c.C) * float64(c.H) * float64(c.W) * float64(c.K) * float64(c.KH) * float64(c.KW)
}

// InputSize returns |I| = C·H·W (Equation 5).
func (c Conv) InputSize() float64 { return float64(c.C) * float64(c.H) * float64(c.W) }

// WeightSize returns |W| = K·C·h·w (Equation 6).
func (c Conv) WeightSize() float64 {
	return float64(c.K) * float64(c.C) * float64(c.KH) * float64(c.KW)
}

// OutputSize returns |O| = K·(H−h+1)·(W−w+1) (Equation 7).
func (c Conv) OutputSize() float64 {
	return float64(c.K) * float64(c.H-c.KH+1) * float64(c.W-c.KW+1)
}

// UnfoldedSize returns |U| = (H−h+1)·(W−w+1)·C·h·w (Equation 8) — the
// input after image-to-column unfolding, larger than |I| by ≈ h·w.
func (c Conv) UnfoldedSize() float64 {
	return float64(c.H-c.KH+1) * float64(c.W-c.KW+1) * float64(c.C) * float64(c.KH) * float64(c.KW)
}

// IntrinsicAIT returns A / (|I|+|W|+|O|), the convolution's intrinsic
// arithmetic intensity.
func (c Conv) IntrinsicAIT() float64 {
	return c.Ops() / (c.InputSize() + c.WeightSize() + c.OutputSize())
}

// Im2colAIT returns A / (2|U|+|W|+|O|): the best AIT the image-to-column
// method can reach, since the unfolded input must be stored and then
// re-read ("the minimum number of memory accesses in image-to-column
// method is 2|U|+|W|+|O|").
func (c Conv) Im2colAIT() float64 {
	return c.Ops() / (2*c.UnfoldedSize() + c.WeightSize() + c.OutputSize())
}

// Im2colFraction returns (|I|+|W|+|O|) / (2|U|+|W|+|O|), the paper's
// bound on the fraction of intrinsic AIT achievable by image-to-column.
func (c Conv) Im2colFraction() float64 {
	return (c.InputSize() + c.WeightSize() + c.OutputSize()) /
		(2*c.UnfoldedSize() + c.WeightSize() + c.OutputSize())
}

// Binary models the bit-packed variant: input and weights shrink by the
// packing factor (32 in the paper's uint32 packing, 64 in this repo's
// uint64 packing) and each arithmetic "operation" covers factor lanes via
// XOR+popcount. The output is *not* packed for the AIT accounting — raw
// inner products are integers (they are only re-binarized by the next
// operator's activation).
type Binary struct {
	Conv
	// Factor is the packing width in lanes per word (32 or 64).
	Factor int
}

// Ops returns the binary op count: one XOR+popcount word pair per Factor
// lanes, i.e. A/Factor.
func (b Binary) Ops() float64 { return b.Conv.Ops() / float64(b.Factor) }

// InputSize returns the packed input size |I|/Factor.
func (b Binary) InputSize() float64 { return b.Conv.InputSize() / float64(b.Factor) }

// WeightSize returns the packed weight size |W|/Factor.
func (b Binary) WeightSize() float64 { return b.Conv.WeightSize() / float64(b.Factor) }

// UnfoldedSize returns |U|/Factor.
func (b Binary) UnfoldedSize() float64 { return b.Conv.UnfoldedSize() / float64(b.Factor) }

// IntrinsicAIT returns the packed convolution's intrinsic AIT.
func (b Binary) IntrinsicAIT() float64 {
	return b.Ops() / (b.InputSize() + b.WeightSize() + b.OutputSize())
}

// Im2colAIT returns the best AIT of a bit-packed image-to-column
// convolution.
func (b Binary) Im2colAIT() float64 {
	return b.Ops() / (2*b.UnfoldedSize() + b.WeightSize() + b.OutputSize())
}

// String renders the geometry.
func (c Conv) String() string {
	return fmt.Sprintf("conv %dx%dx%d K=%d %dx%d", c.H, c.W, c.C, c.K, c.KH, c.KW)
}
