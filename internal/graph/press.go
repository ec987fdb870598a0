package graph

// Kernel compression (Silfa & Arnau, "Exploiting Kernel Compression on
// BNNs") is one filter fold: a conv whose K packed filters hold only F
// distinct ones, with K/F ≥ kernels.CompressMinRatio, sweeps the F and
// copies their counts out (see core.NewConvPacked). The fold is held by
// the operator and is a step of its ordinary forward, so this file has
// no pass to run: a network is compressed wherever its compiled convs
// fold, and an uncompressed network (CloneUncompressed) is a chain laid
// over unfolded shallow copies of them — sharing the packed words —
// which is what the differential harness compares against. Dense layers
// always sweep.
//
// Like fusion, the fold is pure runtime planning: it happens at compile
// time, for a build *and* a load, off the packed weights, the serialized
// format carries no plan metadata, and save→load keeps artifacts
// byte-identical. The folded sweep's counts are the same integers as the
// full sweep's and finish through the same epilogue, so logits are
// bit-identical either way.

// LayerCompression reports one layer's filter duplication and whether
// this network's forward runs it folded.
type LayerCompression struct {
	// Layer and Kind identify the node ("conv3.1", "conv", …). Fused
	// conv+pool nodes report under their joined name.
	Layer string
	Kind  string
	// Channels × Positions is the packed bank geometry: K filters of S
	// words. TotalWords is K·S; DistinctWords is F·S over the F distinct
	// filters, the words a folded accumulate streams (K·S for a dense
	// layer).
	Channels, Positions       int
	TotalWords, DistinctWords int
	// Ratio is K/F (1 for a dense layer); Selected reports whether the
	// layer's operator folds, i.e. its forward sweeps only the distinct
	// filters (ratio ≥ kernels.CompressMinRatio, outside
	// CloneUncompressed). Dense layers always report false.
	Ratio    float64
	Selected bool
}

// Compression reports the per-layer filter duplication of every
// weighted binary layer (the mixed-precision float stem has no packed
// bank and is omitted).
func (n *Network) Compression() []LayerCompression {
	out := make([]LayerCompression, 0, len(n.nodes))
	for i, nd := range n.nodes {
		var lc LayerCompression
		switch {
		case nd.conv != nil:
			K, F := nd.conv.Shape.K, nd.conv.DistinctFilters()
			S := len(nd.conv.Filter().Words) / K
			lc = LayerCompression{Layer: nd.sp.name, Kind: "conv", Channels: K, Positions: S, TotalWords: K * S, DistinctWords: F * S,
				Ratio: float64(K) / float64(F), Selected: nd.conv.Folded() && !n.plan.uncompressed}
			if n.fused(i) {
				lc.Layer, lc.Kind = nd.sp.name+"+"+n.nodes[i+1].sp.name, "conv+pool"
			}
		case nd.dense != nil:
			K, S := nd.dense.Shape.K, nd.dense.Weights().WPR
			lc = LayerCompression{Layer: nd.sp.name, Kind: "fc", Channels: K, Positions: S, TotalWords: K * S, DistinctWords: K * S, Ratio: 1}
		default:
			continue
		}
		out = append(out, lc)
	}
	return out
}

// CompressedLayers counts the layers whose operator folds — the
// headline number bitflow-info and /model report.
func (n *Network) CompressedLayers() int {
	c := 0
	for _, lc := range n.Compression() {
		if lc.Selected {
			c++
		}
	}
	return c
}

// CloneUncompressed is Clone with compression off: an independent
// buffer chain over unfolded copies of the operators — the *same*
// packed words — sweeping all filters everywhere. It keeps the fusion
// plan, so a fused network compares fused-compressed against
// fused-uncompressed — one variable at a time.
func (n *Network) CloneUncompressed() *Network {
	return n.with(plan{unfused: n.plan.unfused, uncompressed: true})
}
