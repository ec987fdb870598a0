package graph

import "fmt"

// Fusion planning (Vorabbi et al., "Optimizing data-flow in Binary
// Neural Networks"): once conv → batchnorm-threshold → binarize runs as
// one packed-bit epilogue, the remaining boundary crossing on a
// conv→pool edge is the intermediate packed plane the conv writes and
// the pool immediately re-reads. Binary max-pool is the OR of sign bits
// (paper §III-C), so a pooled conv is just core.Conv.ForwardPacked with
// a window wider than one position: the pass below hands every eligible
// poolLayer to the convLayer in front of it as that window, rewires the
// conv onto the pool's output edge, and drops the pool node and the
// intermediate plane from the activation chain.
//
// The pass is pure runtime planning: it runs at build *and* load time
// off the architecture specs, the serialized format carries no fusion
// metadata, and Save/readActivations see a fused node as the conv it is
// (the pool holds no weights or activation records). Pre-fusion
// artifacts therefore load fused with bit-identical logits, and the
// layer list — names ("conv+pool"), order, count — is a deterministic
// function of the architecture, so dashboards keyed on layer names see
// no discontinuity across a hot reload from an artifact saved unfused.

// FusionStats summarizes what the planning pass collapsed.
type FusionStats struct {
	// Pairs is the number of conv→pool pairs fused into one node.
	Pairs int
	// EliminatedWords counts the packed intermediate-plane words removed
	// from the pre-allocated activation chain (8 bytes each).
	EliminatedWords int64
}

// Fusion reports the network's fusion planning outcome.
func (n *Network) Fusion() FusionStats { return n.fusion }

// fuse is the planning pass: give each convLayer the poolLayer that
// directly consumes its buffer when core.Conv.CanFusePool accepts the
// geometry (non-overlapping windows over exactly the conv's output).
// Non-matching layers — the float input stem, overlapping pools, dense
// heads — keep their existing nodes untouched.
func (n *Network) fuse() {
	fused := make([]layer, 0, len(n.layers))
	for i := 0; i < len(n.layers); i++ {
		fused = append(fused, n.layers[i])
		cl, ok := n.layers[i].(*convLayer)
		if !ok || i+1 == len(n.layers) {
			continue
		}
		pl, ok := n.layers[i+1].(*poolLayer)
		if !ok || cl.out != pl.in || !cl.op.CanFusePool(pl.op.Shape) {
			continue
		}
		eliminated := int64(len(cl.out.Words))
		n.activationWords -= eliminated
		n.fusion.Pairs++
		n.fusion.EliminatedWords += eliminated
		cl.pool, cl.joined, cl.out = pl.op, cl.lname+"+"+pl.lname, pl.out
		i++ // the pool is now the conv's window
	}
	n.layers = fused
}

// CloneUnfused is Clone with the fusion planner disabled: an independent
// buffer chain over the *same* packed weights, executing the original
// layer-per-node data-flow. It exists for the fused-vs-unfused
// equivalence harness (tests, conformance oracle, the benchmark's
// reference and graph.fusion_gain) — production paths always take the
// fused plan.
func (n *Network) CloneUnfused() *Network {
	b := &Builder{name: n.Name, feat: n.Feat, inH: n.InH, inW: n.InW, inC: n.InC,
		specs: n.arch, noFuse: true, noPress: n.uncompressed}
	clone, err := b.buildFrom(&reuseSource{layers: n.layers})
	if err != nil {
		panic(fmt.Sprintf("graph: CloneUnfused of a compiled network failed: %v", err))
	}
	clone.ec = n.ec
	return clone
}
