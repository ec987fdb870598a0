package graph

import (
	"fmt"

	"bitflow/internal/kernels"
)

// Kernel-compression planning (Silfa & Arnau, "Exploiting Kernel
// Compression on BNNs"): packed binary weight banks repeat 64-bit words
// across output channels, and a conv of at least 64 input channels whose
// duplication ratio clears kernels.CompressMinRatio holds a CompressPlan
// compiled at construction (see core.NewConvPacked). The plan is held
// by the operator and is the accumulate step of its ordinary forward, so
// this file has no pass to run: a network is compressed wherever its
// convs hold plans, and an uncompressed network (CloneUncompressed) is
// one built over plan-less shallow copies of the convs — sharing the
// packed words — which is what the differential harness compares
// against. Dense layers are analyzed
// but always sweep: every fc layer of VGG-16, TinyVGG and DupNet
// measures a duplication ratio of 1.00, where a plan only adds a scatter.
//
// Like fusion, compression is pure runtime planning: it happens at build
// *and* load time off the packed weights, the serialized format carries
// no plan metadata, and save→load keeps artifacts byte-identical. The
// plan's accumulators sum the same integer popcounts as the sweep and
// finish through the same epilogue, so logits are bit-identical either
// way.

// LayerCompression reports one layer's duplication analysis and whether
// this network's forward runs it compressed.
type LayerCompression struct {
	// Layer and Kind identify the node ("conv3.1", "conv", …). Fused
	// conv+pool nodes report under their joined name.
	Layer string
	Kind  string
	// Channels × Positions is the packed bank geometry; DistinctWords of
	// the TotalWords survive deduplication.
	Channels, Positions       int
	TotalWords, DistinctWords int
	// Ratio is TotalWords/DistinctWords; Selected reports whether the
	// layer's operator holds a plan, i.e. its forward sweeps only the
	// plan's distinct filters or walks its distinct-word table (ratio
	// cleared the threshold on a bank of ≥ 64 input channels, or a plan
	// was forced, and planning was not disabled). Dense layers always
	// report false.
	Ratio    float64
	Selected bool
}

// Compression reports the per-layer kernel-compression analysis of every
// weighted binary layer (the mixed-precision float stem has no packed
// bank and is omitted).
func (n *Network) Compression() []LayerCompression {
	out := make([]LayerCompression, 0, len(n.layers))
	for _, l := range n.layers {
		var st kernels.CompressStats
		selected := false
		switch t := l.(type) {
		case *convLayer:
			st, selected = t.op.CompressionStats(), t.op.Compression() != nil
		case *denseLayer:
			st = t.op.CompressionStats()
		default:
			continue
		}
		out = append(out, LayerCompression{
			Layer: l.name(), Kind: l.kind(),
			Channels: st.Channels, Positions: st.Positions,
			TotalWords: st.TotalWords, DistinctWords: st.DistinctWords,
			Ratio: st.Ratio(), Selected: selected,
		})
	}
	return out
}

// CompressedLayers counts the layers whose operator holds a plan — the
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

// CloneUncompressed is Clone with compression planning disabled: an
// independent buffer chain over plan-less copies of the operators — the
// *same* packed words — sweeping everywhere. It inherits the fusion plan, so a
// fused network compares fused-compressed against fused-uncompressed —
// one variable at a time.
func (n *Network) CloneUncompressed() *Network {
	b := &Builder{name: n.Name, feat: n.Feat, inH: n.InH, inW: n.InW, inC: n.InC,
		specs: n.arch, noFuse: n.unfused, noPress: true}
	clone, err := b.buildFrom(&reuseSource{layers: n.layers})
	if err != nil {
		panic(fmt.Sprintf("graph: CloneUncompressed of a compiled network failed: %v", err))
	}
	clone.ec = n.ec
	return clone
}
