package graph

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/tensor"
)

// The build's second phase (the paper's "pre-allocate all the memory
// needed for storing the output and intermediate results"): lay a
// buffer chain over compiled nodes. Build, Load, Clone, the two plan
// clones and every batch lane are this one allocator over nodes that
// compile made once; only the plan differs. Weights are never copied:
// a clone owns its activations and shares every operator.

// plan is how a network's chain is laid over its nodes. Production
// networks fuse and fold; CloneUnfused and CloneUncompressed turn one
// off each, as the differential oracles.
type plan struct {
	// unfused keeps every pool a node of its own (see fuse.go).
	unfused bool
	// uncompressed runs every conv as its unfolded twin (see press.go).
	uncompressed bool
}

// Clone builds an independent copy of the network that *shares* the
// packed weights (operators are read-only after construction) but owns a
// fresh activation buffer chain, laid under the original's plan. Use one
// clone per goroutine for concurrent inference — Infer on a single
// Network is not thread-safe, but clones never contend:
//
//	worker := net.Clone()
//	go func() { _ = worker.Infer(x) }()
func (n *Network) Clone() *Network { return n.with(n.plan) }

// with lays a fresh chain over n's nodes under p.
func (n *Network) with(p plan) *Network {
	m := &Network{Name: n.Name, InH: n.InH, InW: n.InW, InC: n.InC, Classes: n.Classes, Feat: n.Feat,
		ec: n.ec, arch: n.arch, nodes: n.nodes, plan: p}
	if err := m.lay(); err != nil {
		// A chain over these nodes was laid once already. Another plan
		// fails only unfused, if the planes fusion saved take it past
		// maxModelBytes.
		panic(fmt.Sprintf("graph: laying a clone failed: %v", err))
	}
	return m
}

// fused reports whether node i is a conv that takes node i+1, a pool,
// as its output window under n's plan.
func (n *Network) fused(i int) bool {
	if n.plan.unfused || i < 0 || i+1 >= len(n.nodes) {
		return false
	}
	cv, pl := n.nodes[i].conv, n.nodes[i+1].pool
	return cv != nil && pl != nil && cv.CanFusePool(pl.Shape)
}

// plane is the packed words of node i's input plane under n's plan: a
// conv's carries its zero-padding margin, and the float stem reads
// floats and a fused pool nothing, so theirs are 0.
func (n *Network) plane(i int) int64 {
	nd := n.nodes[i]
	if nd.fconv != nil || n.fused(i-1) {
		return 0
	}
	m := nd.margin()
	return int64(nd.h+2*m) * int64(nd.w+2*m) * int64(nd.words)
}

func (nd *node) margin() int {
	if nd.conv != nil {
		return nd.sp.pad
	}
	return 0
}

// lay allocates n's chain over n.nodes under n.plan. It sizes the chain
// from the shapes first and refuses one over maxModelBytes before
// anything is allocated, so a hostile header costs nothing.
func (n *Network) lay() error {
	var floats int64
	if nd := n.nodes[0]; nd.fconv != nil {
		floats = int64(nd.h) * int64(nd.w) * int64(nd.c)
	}
	for i := range n.nodes {
		n.activationWords += n.plane(i)
		if 4*floats+8*n.activationWords > maxModelBytes {
			return fmt.Errorf("graph: activation chain exceeds %d bytes", int64(maxModelBytes))
		}
	}
	// planes[i] is node i's input plane, which node i-1 (or, across a
	// fused pool, node i-2) writes; the last node writes logits.
	planes := make([]*bitpack.Packed, len(n.nodes)+1)
	for i, nd := range n.nodes {
		if n.plane(i) > 0 {
			m := nd.margin()
			planes[i] = bitpack.NewPacked(nd.h, nd.w, nd.c, nd.words, m, m)
		}
	}
	n.input = planes[0]
	n.layers = make([]layer, 0, len(n.nodes))
	for i := 0; i < len(n.nodes); i++ {
		nd := n.nodes[i]
		switch {
		case nd.fconv != nil:
			n.inputFloat = tensor.New(nd.h, nd.w, nd.c)
			n.layers = append(n.layers, &floatConvLayer{lname: nd.sp.name, op: nd.fconv, in: n.inputFloat, out: planes[i+1]})
		case nd.conv != nil:
			l := &convLayer{lname: nd.sp.name, op: nd.conv, in: planes[i], out: planes[i+1]}
			if n.plan.uncompressed {
				l.op = l.op.Uncompressed()
			}
			if n.fused(i) {
				i++
				l.pool, l.joined, l.out = n.nodes[i].pool, l.lname+"+"+n.nodes[i].sp.name, planes[i+1]
			}
			n.layers = append(n.layers, l)
		case nd.pool != nil:
			n.layers = append(n.layers, &poolLayer{lname: nd.sp.name, op: nd.pool, in: planes[i], out: planes[i+1]})
		default:
			l := &denseLayer{lname: nd.sp.name, op: nd.dense, in: planes[i].Words, out: core.DenseOut{Acc: nd.dense.NewScratch()}}
			if i+1 < len(n.nodes) {
				l.out.Bits = planes[i+1].Words
			} else {
				l.out.Logits = make([]float32, n.Classes)
				n.output = l.out.Logits
			}
			n.layers = append(n.layers, l)
		}
	}
	return nil
}
