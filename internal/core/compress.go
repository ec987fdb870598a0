package core

// Kernel compression (Silfa & Arnau, "Exploiting Kernel Compression on
// BNNs") changes only which filters one window is swept over, so it is a
// step inside the ordinary conv forward, not a family beside it. At
// construction NewConvPacked counts the bank's distinct filters F
// (kernels.DistinctFilters); when K/F reaches kernels.CompressMinRatio the
// conv keeps the F distinct filters and its forward sweeps only those,
// then copies each count out to every channel sharing the filter
// (kernels.Expand). A whole filter has no dead bits, so the rule holds at
// any channel count. The counts are the same integers either way and
// finish through the same epilogue, so a folded operator is
// bit-identical to its unfolded twin (Uncompressed), which is what the
// differential tests compare. Dense always sweeps.

// DistinctFilters returns the number of distinct filters F in the conv's
// packed bank, measured at construction whether or not it folds.
func (cv *Conv) DistinctFilters() int { return cv.distinct }

// Folded reports whether the conv's forward sweeps only its distinct
// filters (K/F ≥ kernels.CompressMinRatio).
func (cv *Conv) Folded() bool { return cv.reps != nil }

// Uncompressed returns the operator's unfolded twin: a shallow copy
// sharing the packed filter words and epilogue whose forwards sweep all
// K filters.
func (cv *Conv) Uncompressed() *Conv {
	c := *cv
	c.folded, c.reps = nil, nil
	return &c
}
