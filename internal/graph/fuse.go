package graph

// Fusion (Vorabbi et al., "Optimizing data-flow in Binary Neural
// Networks"): once conv → batchnorm-threshold → binarize runs as one
// packed-bit epilogue, the remaining boundary crossing on a conv→pool
// edge is the intermediate packed plane the conv writes and the pool
// immediately re-reads. Binary max-pool is the OR of sign bits (paper
// §III-C), so a pooled conv is just core.Conv.ForwardPacked with a
// window wider than one position. Fusion is therefore a decision of the
// buffer chain alone: as lay (clone.go) lays the chain, a conv whose
// next node is a pool it can fuse takes that pool as its window and
// writes the pool's output plane, and neither the pool's layer nor the
// plane between them is made.
//
// Nothing of it is stored: every chain is laid from the compiled nodes,
// at build *and* load time, the serialized format carries no fusion
// metadata, and Save writes the nodes, so a fused conv+pool is the conv
// it is (the pool holds no weights or activation records). Pre-fusion
// artifacts therefore load fused with bit-identical logits, and the
// layer list — names ("conv+pool"), order, count — is a deterministic
// function of the architecture, so dashboards keyed on layer names see
// no discontinuity across a hot reload from an artifact saved unfused.

// FusionStats summarizes what fusion collapsed.
type FusionStats struct {
	// Pairs is the number of conv→pool pairs fused into one node.
	Pairs int
	// EliminatedWords counts the packed intermediate-plane words removed
	// from the pre-allocated activation chain (8 bytes each).
	EliminatedWords int64
}

// Fusion reports the conv→pool pairs the network's chain fuses and the
// plane words that saves.
func (n *Network) Fusion() FusionStats {
	var fs FusionStats
	for i, nd := range n.nodes {
		if n.fused(i - 1) {
			fs.Pairs++
			fs.EliminatedWords += int64(nd.h * nd.w * nd.words)
		}
	}
	return fs
}

// CloneUnfused is Clone with fusion off: an independent buffer chain
// over the *same* packed weights, executing the original layer-per-node
// data-flow. It exists for the fused-vs-unfused equivalence harness
// (tests, conformance oracle, the benchmark's reference and
// graph.fusion_gain) — production paths always take the fused plan.
func (n *Network) CloneUnfused() *Network {
	return n.with(plan{unfused: true, uncompressed: n.plan.uncompressed})
}
