package graph

import (
	"fmt"

	"bitflow/internal/core"
	"bitflow/internal/sched"
)

// Clone builds an independent copy of the network that *shares* the
// packed weights (operators are read-only after construction) but owns a
// fresh activation buffer chain. Use one clone per goroutine for
// concurrent inference — Infer on a single Network is not thread-safe,
// but clones never contend:
//
//	worker := net.Clone()
//	go func() { _ = worker.Infer(x) }()
func (n *Network) Clone() *Network {
	// Clones inherit the original's data-flow plan: an unfused network's
	// lanes stay unfused, so fused-vs-unfused comparisons compare like
	// with like even through EnsureBatch.
	b := &Builder{name: n.Name, feat: n.Feat, inH: n.InH, inW: n.InW, inC: n.InC,
		specs: n.arch, noFuse: n.unfused, noPress: n.uncompressed}
	clone, err := b.buildFrom(&reuseSource{layers: n.layers})
	if err != nil {
		// The architecture already compiled once; a failure here is a
		// programming error, not a user input problem.
		panic(fmt.Sprintf("graph: Clone of a compiled network failed: %v", err))
	}
	clone.ec = n.ec
	return clone
}

// reuseSource hands back the original network's operators in layer order.
type reuseSource struct {
	layers []layer
	idx    int
}

func (rs *reuseSource) next() layer {
	for rs.idx < len(rs.layers) {
		l := rs.layers[rs.idx]
		rs.idx++
		switch l.(type) {
		case *convLayer, *denseLayer, *floatConvLayer:
			return l
		}
	}
	return nil
}

func (rs *reuseSource) conv(name string, shape sched.ConvShape, plan sched.Plan) (*core.Conv, error) {
	l := rs.next()
	cl, ok := l.(*convLayer)
	if !ok || cl.lname != name {
		return nil, fmt.Errorf("graph: clone source out of sync at conv %q", name)
	}
	return cl.op, nil
}

func (rs *reuseSource) dense(name string, shape sched.FCShape, plan sched.Plan) (*core.Dense, error) {
	l := rs.next()
	dl, ok := l.(*denseLayer)
	if !ok || dl.lname != name {
		return nil, fmt.Errorf("graph: clone source out of sync at dense %q", name)
	}
	return dl.op, nil
}

func (rs *reuseSource) floatConv(name string, shape sched.ConvShape) (*core.FloatConv, error) {
	l := rs.next()
	fl, ok := l.(*floatConvLayer)
	if !ok || fl.lname != name {
		return nil, fmt.Errorf("graph: clone source out of sync at float conv %q", name)
	}
	return fl.op, nil
}

func (rs *reuseSource) convBias(name string, k int) ([]float32, error)  { return nil, nil }
func (rs *reuseSource) denseBias(name string, k int) ([]float32, error) { return nil, nil }

// batchNorm reports "already baked": the shared operators carry their
// folded activations.
func (rs *reuseSource) batchNorm(name string, channels int) (*BNParams, error) { return nil, nil }
