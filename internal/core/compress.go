package core

import (
	"fmt"

	"bitflow/internal/kernels"
)

// Kernel compression (Silfa & Arnau, "Exploiting Kernel Compression on
// BNNs") changes only how one window's popcounts are accumulated, so it
// is a step inside the ordinary conv forward, not a family beside it: a
// conv of at least 64 input channels whose packed filter bank repeats
// words across output channels holds a CompressPlan (built at
// construction, see NewConvPacked, or forced with SetCompression). When
// the plan folds whole filters, Conv.ForwardPacked sweeps the gathered
// window over the plan's distinct filters only and copies their counts
// out to every duplicate; otherwise it walks the plan's distinct-word
// table over the same window the plain sweep would read. Either way the
// accumulators sum the same integer popcounts and finish through the
// operator's epilogues, so a planned operator is bit-identical to its
// plan-less twin (Uncompressed), which is what the differential tests
// compare. Dense measures its duplication (Dense.CompressionStats) but
// always sweeps.

// Compression returns the conv's kernel-compression plan, or nil when
// the filter bank's duplication ratio did not clear the selection
// threshold (and none was forced via SetCompression).
func (cv *Conv) Compression() *kernels.CompressPlan { return cv.press }

// CompressionStats returns the duplication analysis of the packed
// filter bank, measured at construction regardless of selection.
func (cv *Conv) CompressionStats() kernels.CompressStats { return cv.pressStats }

// SetCompression forces a kernel-compression plan (or clears it with
// nil), overriding the load-time threshold selection — a hook for
// differential tests and benchmarks that need the compressed accumulate
// on banks below the ratio threshold. It takes effect on the operator's
// next forward, in every network sharing it. The plan must match the
// filter bank's geometry.
//
//bitflow:keep test hook: core and graph differential tests force the compressed accumulate through it
func (cv *Conv) SetCompression(cp *kernels.CompressPlan) error {
	if cp != nil {
		if s := cv.Shape.KH * cv.rowLen; cp.K != cv.Shape.K || cp.S != s {
			return fmt.Errorf("core: compression plan %dx%d does not match conv bank %dx%d", cp.K, cp.S, cv.Shape.K, s)
		}
	}
	cv.press = cp
	return nil
}

// Uncompressed returns the operator's plan-less twin: a shallow copy
// sharing the packed filter words and epilogues whose forwards always
// sweep, whatever plan is later set on cv.
func (cv *Conv) Uncompressed() *Conv {
	c := *cv
	c.press = nil
	return &c
}
