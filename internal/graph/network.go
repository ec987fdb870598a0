package graph

import (
	"context"
	"fmt"
	"time"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/faultinject"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// layer is one executable step of a network: a compiled node, or a
// fused conv+pool pair. Its buffers are wired when the chain is laid
// (clone.go); forward only computes.
type layer interface {
	name() string
	kind() string
	outDims() string
	forward(ec *exec.Ctx)
	// weightStats returns (scalar weight count, bytes of weight storage
	// actually held — packed bits for binary layers, float32 for the
	// mixed-precision first layer); zero for weightless layers.
	weightStats() (int64, int64)
	// parallelUnits is the layer's multi-core work-unit count (fused
	// OutH·OutW for conv/pool, K for dense) — the granularity the
	// paper's thread split works at, used by scaling models.
	parallelUnits() int
}

// Network is a compiled binary neural network: operators with pre-packed
// weights plus a pre-allocated buffer chain. Infer is not safe for
// concurrent use on the same Network (buffers are shared state); clone
// the network per goroutine instead.
type Network struct {
	Name          string
	InH, InW, InC int
	Classes       int
	Feat          sched.Features

	// ec is the attached execution context (SetExec); nil runs serially.
	// req is ec under one call's context, re-derived in place per call:
	// a Network runs one pass at a time.
	ec  *exec.Ctx
	req exec.Ctx

	// nodes is the compiled graph (builder.go), shared read-only by
	// every network laid over it: clones and batch lanes. plan is how
	// this network's chain is laid over it (clone.go).
	nodes []*node
	plan  plan

	// layers is the chain over the nodes, in execution order.
	layers []layer
	input  *bitpack.Packed
	// inputFloat replaces input when the first layer is a FloatConv
	// (mixed precision): the network then consumes raw floats.
	inputFloat *tensor.Tensor
	output     []float32
	// arch records the builder specs the network was compiled from, so
	// Save can serialize the architecture alongside the packed weights.
	arch []spec

	activationWords int64 // pre-allocated packed activation words

	// lanes is the batched-inference buffer pool (see inferbatch.go):
	// lane 0 is the network itself, the rest are clones sharing the
	// packed weights. Grown once by EnsureBatch, never shrunk.
	lanes []*Network
	// laneErrs[b] is lane b's outcome in the InferBatch under way; each
	// lane writes only its own slot, so lanes on different workers never
	// share one.
	laneErrs []error
}

// LayerInfo describes one layer for reporting.
type LayerInfo struct {
	Name    string
	Kind    string
	OutDims string
}

// Layers lists the network's layers in execution order.
func (n *Network) Layers() []LayerInfo {
	out := make([]LayerInfo, len(n.layers))
	for i, l := range n.layers {
		out[i] = LayerInfo{Name: l.name(), Kind: l.kind(), OutDims: l.outDims()}
	}
	return out
}

// Infer runs one forward pass on x (shape must match InH×InW×InC) and
// returns the Classes logits. The returned slice is freshly allocated.
// Infer panics on a shape mismatch; servers handling untrusted input
// should call InferChecked instead.
func (n *Network) Infer(x *tensor.Tensor) []float32 {
	out, err := n.InferChecked(x)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// CheckInput validates that x matches the network's compiled input shape,
// returning a descriptive error on mismatch. It never panics.
func (n *Network) CheckInput(x *tensor.Tensor) error {
	if x == nil {
		return fmt.Errorf("graph: nil input, network expects %dx%dx%d", n.InH, n.InW, n.InC)
	}
	if x.H != n.InH || x.W != n.InW || x.C != n.InC {
		return fmt.Errorf("graph: input %v, network expects %dx%dx%d", x, n.InH, n.InW, n.InC)
	}
	if len(x.Data) != x.H*x.W*x.C {
		return fmt.Errorf("graph: input data length %d, shape %v wants %d",
			len(x.Data), x, x.H*x.W*x.C)
	}
	return nil
}

// SetExec attaches a prepared execution context: dispatch pool, thread
// budget, and optional per-layer observer. Servers build one base context
// for the whole process and attach it to every replica, so the process
// shares a single worker pool no matter how many replicas run; a command
// line tool attaches exec.Threads(n). Passing nil detaches: the network
// then runs serially on the caller's goroutine.
func (n *Network) SetExec(ec *exec.Ctx) { n.ec = ec }

// Exec returns the attached execution context, or nil when the network
// runs serially.
func (n *Network) Exec() *exec.Ctx { return n.ec }

// InferChecked is Infer with the shape panic converted into a returned
// error, so untrusted user input can never reach a panic path. A non-nil
// error means no forward pass ran. It is
// InferContext(context.Background(), x).
func (n *Network) InferChecked(x *tensor.Tensor) ([]float32, error) {
	return n.InferContext(context.Background(), x)
}

// InferContext is InferChecked under a cancellation context: the pass
// checks ctx between layers and stops within one layer's latency of
// cancellation, returning ctx's error. An abandoned pass leaves the
// activation buffers in a consistent state — every layer rewrites its
// output in full — so the network is immediately reusable and the next
// Infer is bit-identical to an uninterrupted one. If an observer is
// attached (exec.Ctx.WithObserver), it receives one timing per layer.
//
// A non-nil ctx replaces any context carried by the attached execution
// context for this pass; a nil ctx leaves the attached one in force.
func (n *Network) InferContext(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	ec := n.ec
	if ctx != nil {
		n.req.Reset(n.ec, ctx)
		ec = &n.req
	}
	return n.infer(ec, x)
}

// infer validates x and runs one pass under ec, returning fresh logits.
func (n *Network) infer(ec *exec.Ctx, x *tensor.Tensor) ([]float32, error) {
	if err := n.CheckInput(x); err != nil {
		return nil, err
	}
	if err := n.pass(ec, x); err != nil {
		return nil, err
	}
	return n.logits(), nil
}

// pass is the one forward body: pack x into the network's own buffer
// chain and run every layer under ec, checking ec between layers,
// firing the graph.layer fault point and reporting to ec's observer.
// Infer runs it on the network, InferBatch on each lane. x must already
// have passed CheckInput.
func (n *Network) pass(ec *exec.Ctx, x *tensor.Tensor) error {
	if err := ec.Err(); err != nil {
		return err
	}
	obs := ec.Observer()
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	n.feedInput(x)
	if obs != nil {
		obs("input", "pack", time.Since(t0))
	}
	for i, l := range n.layers {
		if err := ec.Err(); err != nil {
			return err
		}
		if err := faultinject.GraphLayer.Fire(ec.Context(), l.name(), i); err != nil {
			return err
		}
		if obs != nil {
			t0 = time.Now()
		}
		l.forward(ec)
		if obs != nil {
			obs(l.name(), l.kind(), time.Since(t0))
		}
	}
	return nil
}

// logits returns a fresh copy of the output buffer: a view of n.output
// would be overwritten by the next inference.
func (n *Network) logits() []float32 {
	out := make([]float32, len(n.output))
	copy(out, n.output)
	return out
}

// LayerTiming records one layer's wall-clock contribution to a timed pass.
type LayerTiming struct {
	Name     string
	Kind     string
	Duration time.Duration
	// Units is the layer's parallel work-unit count (0 for the serial
	// input-pack stage).
	Units int
}

// InferTimed runs one forward pass and reports per-layer wall-clock times
// (the input binarize+pack is reported as layer "input"). Like Infer, it
// panics on a shape mismatch.
func (n *Network) InferTimed(x *tensor.Tensor) ([]float32, []LayerTiming) {
	timings := make([]LayerTiming, 0, len(n.layers)+1)
	ec := n.ec.WithObserver(func(name, kind string, d time.Duration) {
		timings = append(timings, LayerTiming{Name: name, Kind: kind, Duration: d})
	})
	if err := n.pass(ec, x); err != nil {
		panic(err.Error())
	}
	for i, l := range n.layers {
		timings[i+1].Units = l.parallelUnits()
	}
	return n.logits(), timings
}

func (n *Network) feedInput(x *tensor.Tensor) {
	if x.H != n.InH || x.W != n.InW || x.C != n.InC {
		panic(fmt.Sprintf("graph: input %v, network expects %dx%dx%d", x, n.InH, n.InW, n.InC))
	}
	if n.inputFloat != nil {
		copy(n.inputFloat.Data, x.Data)
		return
	}
	bitpack.PackTensorInto(x, n.input)
}

// ModelSize reports the storage cost of the network's weights.
type ModelSize struct {
	// Weights is the number of scalar weights.
	Weights int64
	// FullPrecisionBytes is Weights × 4 (float32 storage).
	FullPrecisionBytes int64
	// BinarizedBytes is the weight storage actually held: bit-packed
	// words for binary layers plus float32 bytes for any mixed-precision
	// float layer.
	BinarizedBytes int64
}

// Compression returns the full-precision/binarized storage ratio
// (≈32× for weight-dominated networks — paper Table V).
func (m ModelSize) Compression() float64 {
	if m.BinarizedBytes == 0 {
		return 0
	}
	return float64(m.FullPrecisionBytes) / float64(m.BinarizedBytes)
}

// ModelSize sums weight storage over all layers.
func (n *Network) ModelSize() ModelSize {
	var s ModelSize
	for _, l := range n.layers {
		w, stored := l.weightStats()
		s.Weights += w
		s.FullPrecisionBytes += w * 4
		s.BinarizedBytes += stored
	}
	return s
}

// ActivationBytes reports the pre-allocated packed activation storage —
// the memory the static-graph analysis reserved up front.
func (n *Network) ActivationBytes() int64 { return n.activationWords * 8 }

// ---------------------------------------------------------------------
// Concrete layers.

// convLayer runs one conv, or — where lay has given it the following
// max-pool (fuse.go) — the conv and that pool as one node writing the
// pool's output plane.
type convLayer struct {
	lname   string
	op      *core.Conv
	in, out *bitpack.Packed

	// pool is set by lay, which also builds joined, the fused node's
	// "conv+pool" name, once; nil pool is a plain conv.
	pool   *core.Pool
	joined string
}

func (l *convLayer) name() string {
	if l.pool != nil {
		return l.joined
	}
	return l.lname
}
func (l *convLayer) kind() string {
	if l.pool != nil {
		return "conv+pool"
	}
	return "conv"
}
func (l *convLayer) outDims() string      { return fmt.Sprintf("%dx%dx%d", l.out.H, l.out.W, l.out.C) }
func (l *convLayer) forward(ec *exec.Ctx) { l.op.ForwardPacked(l.in, l.pool, l.out, ec) }
func (l *convLayer) parallelUnits() int   { return l.out.H * l.out.W }
func (l *convLayer) weightStats() (int64, int64) {
	s := l.op.Shape
	return int64(s.K) * int64(s.KH) * int64(s.KW) * int64(s.InC), 8 * int64(len(l.op.Filter().Words))
}

type floatConvLayer struct {
	lname string
	op    *core.FloatConv
	in    *tensor.Tensor // owned copy of the network's float input
	out   *bitpack.Packed
}

func (l *floatConvLayer) name() string { return l.lname }
func (l *floatConvLayer) kind() string { return "floatconv" }
func (l *floatConvLayer) outDims() string {
	s := l.op.Shape
	return fmt.Sprintf("%dx%dx%d", s.OutH, s.OutW, s.OutC)
}
func (l *floatConvLayer) forward(ec *exec.Ctx) { l.op.Forward(l.in, l.out, ec) }
func (l *floatConvLayer) parallelUnits() int   { return l.op.Shape.OutH * l.op.Shape.OutW }
func (l *floatConvLayer) weightStats() (int64, int64) {
	s := l.op.Shape
	w := int64(s.K) * int64(s.KH) * int64(s.KW) * int64(s.InC)
	return w, 4 * w // kept in float32
}

type poolLayer struct {
	lname   string
	op      *core.Pool
	in, out *bitpack.Packed
}

func (l *poolLayer) name() string { return l.lname }
func (l *poolLayer) kind() string { return "pool" }
func (l *poolLayer) outDims() string {
	s := l.op.Shape
	return fmt.Sprintf("%dx%dx%d", s.OutH, s.OutW, s.OutC)
}
func (l *poolLayer) forward(ec *exec.Ctx)        { l.op.Forward(l.in, l.out, ec) }
func (l *poolLayer) weightStats() (int64, int64) { return 0, 0 }
func (l *poolLayer) parallelUnits() int          { return l.op.Shape.OutH * l.op.Shape.OutW }

type denseLayer struct {
	lname string
	op    *core.Dense
	in    []uint64

	// out is the operator's output form, fixed at build time (per
	// clone — the shared operator carries no mutable state): Acc is the
	// K-length accumulator scratch, and hidden dense layers set Bits
	// (the fused sign activation) where the final classifier sets
	// Logits.
	out core.DenseOut
}

func (l *denseLayer) name() string         { return l.lname }
func (l *denseLayer) kind() string         { return "fc" }
func (l *denseLayer) outDims() string      { return fmt.Sprintf("%d", l.op.Shape.K) }
func (l *denseLayer) forward(ec *exec.Ctx) { l.op.Forward(l.in, l.out, ec) }
func (l *denseLayer) weightStats() (int64, int64) {
	s := l.op.Shape
	return int64(s.N) * int64(s.K), 8 * int64(len(l.op.Weights().Words))
}
func (l *denseLayer) parallelUnits() int { return l.op.Shape.K }
