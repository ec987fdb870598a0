package graph

import (
	"errors"
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

type specKind int

const (
	specConv specKind = iota
	specPool
	specFlatten
	specDense
	specBatchNorm
	specFloatConv
)

type spec struct {
	kind                   specKind
	name                   string
	k, kh, kw, stride, pad int
	units                  int
}

// Builder assembles a sequential binary network layer by layer and
// compiles it into a Network with Build. Methods record errors instead of
// panicking; Build returns the first one.
type Builder struct {
	name          string
	feat          sched.Features
	inH, inW, inC int
	specs         []spec
	// noFuse disables the conv→pool fusion planning pass (see fuse.go).
	noFuse bool
	// noPress disables kernel compression: conv layers get unfolded
	// operators (see press.go).
	noPress bool
}

// NewBuilder starts a network taking inH×inW×inC inputs.
func NewBuilder(name string, inH, inW, inC int, feat sched.Features) *Builder {
	return &Builder{name: name, feat: feat, inH: inH, inW: inW, inC: inC}
}

// Conv appends a binary convolution with K filters of kh×kw, the given
// stride and symmetric zero padding. The sign activation is fused.
func (b *Builder) Conv(name string, k, kh, kw, stride, pad int) *Builder {
	b.specs = append(b.specs, spec{kind: specConv, name: name, k: k, kh: kh, kw: kw, stride: stride, pad: pad})
	return b
}

// Conv3x3 appends the VGG-style 3×3 stride-1 pad-1 convolution.
func (b *Builder) Conv3x3(name string, k int) *Builder { return b.Conv(name, k, 3, 3, 1, 1) }

// FloatConv appends a full-precision convolution with sign-packed output
// — the mixed-precision first layer (see core.FloatConv). It must be the
// network's first layer: it is the only operator that consumes raw float
// input. Spatial padding uses the float convention (zeros).
func (b *Builder) FloatConv(name string, k, kh, kw, stride, pad int) *Builder {
	b.specs = append(b.specs, spec{kind: specFloatConv, name: name, k: k, kh: kh, kw: kw, stride: stride, pad: pad})
	return b
}

// Pool appends a binary max pool with a kh×kw window and the given stride.
func (b *Builder) Pool(name string, kh, kw, stride int) *Builder {
	b.specs = append(b.specs, spec{kind: specPool, name: name, kh: kh, kw: kw, stride: stride})
	return b
}

// Flatten marks the spatial→flat transition. It is optional — a Dense
// following a spatial layer flattens implicitly — but lets architectures
// state the transition explicitly.
func (b *Builder) Flatten() *Builder {
	b.specs = append(b.specs, spec{kind: specFlatten})
	return b
}

// Dense appends a binary fully connected layer with `units` outputs. The
// final Dense of the network emits float logits; all earlier ones fuse
// the sign activation.
func (b *Builder) Dense(name string, units int) *Builder {
	b.specs = append(b.specs, spec{kind: specDense, name: name, units: units})
	return b
}

// BatchNorm appends batch normalization over the immediately preceding
// conv or dense layer. At build time the affine folds away entirely:
// into integer sign thresholds for hidden layers, into a float affine
// for the classifier (see internal/core/threshold.go). The WeightSource
// must implement BatchNormSource.
func (b *Builder) BatchNorm(name string) *Builder {
	b.specs = append(b.specs, spec{kind: specBatchNorm, name: name})
	return b
}

// opSource supplies constructed operators per layer. The float path
// (Build) fetches float weights and packs them; the deserialization path
// (Load) hands back operators rebuilt from stored packed weights.
type opSource interface {
	conv(name string, shape sched.ConvShape, plan sched.Plan) (*core.Conv, error)
	dense(name string, shape sched.FCShape, plan sched.Plan) (*core.Dense, error)
	floatConv(name string, shape sched.ConvShape) (*core.FloatConv, error)
	// convBias / denseBias return the layer's bias or nil when absent.
	convBias(name string, k int) ([]float32, error)
	denseBias(name string, k int) ([]float32, error)
	// batchNorm returns the parameters for a BatchNorm spec, or nil when
	// the activation is already baked in (the packed-model load path).
	batchNorm(name string, channels int) (*BNParams, error)
}

// floatSource adapts a WeightSource to opSource.
type floatSource struct{ ws WeightSource }

func (f floatSource) conv(name string, shape sched.ConvShape, plan sched.Plan) (*core.Conv, error) {
	w, err := f.ws.ConvFilter(name, shape.K, shape.KH, shape.KW, shape.InC)
	if err != nil {
		return nil, fmt.Errorf("graph: weights for conv %q: %w", name, err)
	}
	return core.NewConv(shape, plan, w)
}

func (f floatSource) dense(name string, shape sched.FCShape, plan sched.Plan) (*core.Dense, error) {
	w, err := f.ws.DenseMatrix(name, shape.N, shape.K)
	if err != nil {
		return nil, fmt.Errorf("graph: weights for dense %q: %w", name, err)
	}
	return core.NewDense(shape, plan, w)
}

func (f floatSource) floatConv(name string, shape sched.ConvShape) (*core.FloatConv, error) {
	w, err := f.ws.ConvFilter(name, shape.K, shape.KH, shape.KW, shape.InC)
	if err != nil {
		return nil, fmt.Errorf("graph: weights for float conv %q: %w", name, err)
	}
	return core.NewFloatConv(shape, w)
}

func (f floatSource) convBias(name string, k int) ([]float32, error) {
	bs, ok := f.ws.(BiasSource)
	if !ok {
		return nil, nil
	}
	return bs.ConvBias(name, k)
}

func (f floatSource) denseBias(name string, k int) ([]float32, error) {
	bs, ok := f.ws.(BiasSource)
	if !ok {
		return nil, nil
	}
	return bs.DenseBias(name, k)
}

func (f floatSource) batchNorm(name string, channels int) (*BNParams, error) {
	bns, ok := f.ws.(BatchNormSource)
	if !ok {
		return nil, fmt.Errorf("graph: batch-norm %q requested but the weight source implements no BatchNormSource", name)
	}
	p, err := bns.BatchNorm(name, channels)
	if err != nil {
		return nil, fmt.Errorf("graph: batch-norm %q: %w", name, err)
	}
	return &p, nil
}

// Build compiles the recorded layers: infers every shape, selects kernels,
// fetches and bit-packs weights, and pre-allocates the full buffer chain.
func (b *Builder) Build(ws WeightSource) (*Network, error) {
	return b.buildFrom(floatSource{ws})
}

// buildFrom compiles against any operator source.
func (b *Builder) buildFrom(src opSource) (*Network, error) {
	if len(b.specs) == 0 {
		return nil, errors.New("graph: empty network")
	}
	n := &Network{
		Name: b.name, InH: b.inH, InW: b.inW, InC: b.inC,
		Feat: b.feat,
		arch: append([]spec(nil), b.specs...),
	}

	curH, curW, curC := b.inH, b.inW, b.inC
	flat := false
	curN := 0

	// lastComp is the index of the final computational spec; trailing
	// BatchNorm specs modify it rather than follow it.
	lastComp := -1
	for i, sp := range b.specs {
		switch sp.kind {
		case specConv, specPool, specDense, specFloatConv:
			lastComp = i
		}
	}

	// Producer whose output buffer is assigned when the *next* layer's
	// input edge is allocated.
	var prevConv *convLayer
	var prevPool *poolLayer
	var prevDense *denseLayer
	var prevFloatConv *floatConvLayer

	// Activation-folding state for the most recently built weighted
	// layer (BatchNorm must immediately follow its conv/dense).
	var foldConv *convLayer
	var foldDense *denseLayer
	var foldFloatConv *floatConvLayer
	var actFolded bool // a bias or batch-norm already folded into it

	// newSpatialEdge allocates the packed buffer carrying the current
	// spatial activation into a consumer wanting the given margins, and
	// wires it as the previous layer's output (or the network input).
	newSpatialEdge := func(margin int) (*bitpack.Packed, error) {
		plan := sched.Select(curC, b.feat)
		buf := bitpack.NewPacked(curH, curW, curC, plan.Words, margin, margin)
		n.activationWords += int64(len(buf.Words))
		switch {
		case prevConv != nil:
			prevConv.out = buf
			prevConv = nil
		case prevPool != nil:
			prevPool.out = buf
			prevPool = nil
		case prevFloatConv != nil:
			prevFloatConv.out = buf
			prevFloatConv = nil
		case prevDense != nil:
			return nil, errors.New("graph: dense layer cannot feed a spatial operator")
		default:
			n.input = buf // first edge: the network input
		}
		return buf, nil
	}

	for i, sp := range b.specs {
		last := i == lastComp
		if sp.kind != specBatchNorm {
			foldConv, foldDense, foldFloatConv, actFolded = nil, nil, nil, false
		}
		switch sp.kind {
		case specFloatConv:
			if i != 0 {
				return nil, fmt.Errorf("graph: float conv %q must be the first layer", sp.name)
			}
			if last {
				return nil, fmt.Errorf("graph: network must end in a dense classifier, not float conv %q", sp.name)
			}
			shape, err := sched.InferConv(curH, curW, curC, sp.k, sp.kh, sp.kw, sp.stride, sp.pad)
			if err != nil {
				return nil, fmt.Errorf("graph: float conv %q: %w", sp.name, err)
			}
			op, err := src.floatConv(sp.name, shape)
			if err != nil {
				return nil, fmt.Errorf("graph: float conv %q: %w", sp.name, err)
			}
			if bias, err := src.convBias(sp.name, sp.k); err != nil {
				return nil, fmt.Errorf("graph: bias for float conv %q: %w", sp.name, err)
			} else if bias != nil {
				if len(bias) != sp.k {
					return nil, fmt.Errorf("graph: float conv %q bias has %d entries, want %d", sp.name, len(bias), sp.k)
				}
				if err := op.SetAffine(core.NewAffineFromBias(bias)); err != nil {
					return nil, fmt.Errorf("graph: float conv %q: %w", sp.name, err)
				}
				actFolded = true
			}
			n.inputFloat = tensor.New(curH, curW, curC)
			l := &floatConvLayer{lname: sp.name, op: op, in: n.inputFloat}
			n.layers = append(n.layers, l)
			prevFloatConv = l
			foldFloatConv = l
			curH, curW, curC = shape.OutH, shape.OutW, shape.OutC

		case specConv:
			if flat {
				return nil, fmt.Errorf("graph: conv %q after flatten", sp.name)
			}
			if last {
				return nil, fmt.Errorf("graph: network must end in a dense classifier, not conv %q", sp.name)
			}
			shape, err := sched.InferConv(curH, curW, curC, sp.k, sp.kh, sp.kw, sp.stride, sp.pad)
			if err != nil {
				return nil, fmt.Errorf("graph: conv %q: %w", sp.name, err)
			}
			in, err := newSpatialEdge(sp.pad)
			if err != nil {
				return nil, err
			}
			op, err := src.conv(sp.name, shape, sched.Select(curC, b.feat))
			if err != nil {
				return nil, fmt.Errorf("graph: conv %q: %w", sp.name, err)
			}
			if b.noPress {
				op = op.Uncompressed()
			}
			if bias, err := src.convBias(sp.name, sp.k); err != nil {
				return nil, fmt.Errorf("graph: bias for conv %q: %w", sp.name, err)
			} else if bias != nil {
				if len(bias) != sp.k {
					return nil, fmt.Errorf("graph: conv %q bias has %d entries, want %d", sp.name, len(bias), sp.k)
				}
				if err := op.SetThresholds(core.FoldBias(bias)); err != nil {
					return nil, fmt.Errorf("graph: conv %q: %w", sp.name, err)
				}
				actFolded = true
			}
			l := &convLayer{lname: sp.name, op: op, in: in}
			n.layers = append(n.layers, l)
			prevConv = l
			foldConv = l
			curH, curW, curC = shape.OutH, shape.OutW, shape.OutC

		case specPool:
			if flat {
				return nil, fmt.Errorf("graph: pool %q after flatten", sp.name)
			}
			if last {
				return nil, fmt.Errorf("graph: network must end in a dense classifier, not pool %q", sp.name)
			}
			shape, err := sched.InferPool(curH, curW, curC, sp.kh, sp.kw, sp.stride)
			if err != nil {
				return nil, fmt.Errorf("graph: pool %q: %w", sp.name, err)
			}
			in, err := newSpatialEdge(0)
			if err != nil {
				return nil, err
			}
			op, err := core.NewPool(shape, in.WPP)
			if err != nil {
				return nil, fmt.Errorf("graph: pool %q: %w", sp.name, err)
			}
			l := &poolLayer{lname: sp.name, op: op, in: in}
			n.layers = append(n.layers, l)
			prevPool = l
			curH, curW, curC = shape.OutH, shape.OutW, shape.OutC

		case specFlatten:
			if flat {
				return nil, errors.New("graph: duplicate flatten")
			}
			// Mode switch only; the buffer aliasing happens when the
			// consuming dense allocates its input edge.
			flat = true
			curN = curH * curW * curC

		case specDense:
			if !flat {
				flat = true
				curN = curH * curW * curC
			}
			shape, err := sched.InferFC(curN, sp.units)
			if err != nil {
				return nil, fmt.Errorf("graph: dense %q: %w", sp.name, err)
			}
			plan := sched.Select(curN, b.feat)
			var in []uint64
			switch {
			case prevConv != nil || prevPool != nil || prevFloatConv != nil || (prevDense == nil && len(n.layers) == 0):
				// Flattening a spatial producer (or the network input):
				// the packed words of a margin-free buffer are exactly
				// the flattened bit vector when C divides the word size.
				// Multi-pixel flatten needs every pixel's lanes to abut
				// exactly; a single pixel is trivially contiguous.
				if curC%bitpack.WordBits != 0 && curH*curW != 1 {
					return nil, fmt.Errorf("graph: flatten requires channel count %d to be a multiple of %d", curC, bitpack.WordBits)
				}
				buf, err := newSpatialEdge(0)
				if err != nil {
					return nil, err
				}
				if len(buf.Words) != plan.Words {
					return nil, fmt.Errorf("graph: dense %q: flattened buffer %d words, plan wants %d", sp.name, len(buf.Words), plan.Words)
				}
				in = buf.Words
			case prevDense != nil:
				in = make([]uint64, plan.Words)
				n.activationWords += int64(plan.Words)
				prevDense.out.Bits = in
				prevDense = nil
			default:
				return nil, fmt.Errorf("graph: dense %q has no producer", sp.name)
			}
			op, err := src.dense(sp.name, shape, plan)
			if err != nil {
				return nil, fmt.Errorf("graph: dense %q: %w", sp.name, err)
			}
			if bias, err := src.denseBias(sp.name, sp.units); err != nil {
				return nil, fmt.Errorf("graph: bias for dense %q: %w", sp.name, err)
			} else if bias != nil {
				if len(bias) != sp.units {
					return nil, fmt.Errorf("graph: dense %q bias has %d entries, want %d", sp.name, len(bias), sp.units)
				}
				if err := op.SetThresholds(core.FoldBias(bias)); err != nil {
					return nil, fmt.Errorf("graph: dense %q: %w", sp.name, err)
				}
				if err := op.SetAffine(core.NewAffineFromBias(bias)); err != nil {
					return nil, fmt.Errorf("graph: dense %q: %w", sp.name, err)
				}
				actFolded = true
			}
			l := &denseLayer{lname: sp.name, op: op, in: in, out: core.DenseOut{Acc: op.NewScratch()}}
			n.layers = append(n.layers, l)
			if last {
				l.out.Logits = make([]float32, sp.units)
				n.output = l.out.Logits
				n.Classes = sp.units
			} else {
				prevDense = l
			}
			foldDense = l
			curN = sp.units

		case specBatchNorm:
			var channels int
			switch {
			case foldConv != nil, foldFloatConv != nil:
				channels = curC
			case foldDense != nil:
				channels = curN
			default:
				return nil, fmt.Errorf("graph: batch-norm %q does not directly follow a conv or dense layer", sp.name)
			}
			if actFolded {
				return nil, fmt.Errorf("graph: batch-norm %q: layer already has a folded bias or batch-norm", sp.name)
			}
			params, err := src.batchNorm(sp.name, channels)
			if err != nil {
				return nil, err
			}
			if params == nil {
				// Packed-model load path: the stored thresholds already
				// include this fold.
				actFolded = true
				break
			}
			eps := params.Eps
			if eps == 0 {
				eps = 1e-5
			}
			th, err := core.FoldBatchNorm(params.Gamma, params.Beta, params.Mean, params.Variance, eps)
			if err != nil {
				return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
			}
			switch {
			case foldConv != nil:
				if err := foldConv.op.SetThresholds(th); err != nil {
					return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
				}
			case foldFloatConv != nil:
				aff, err := core.NewAffineFromBatchNorm(params.Gamma, params.Beta, params.Mean, params.Variance, eps)
				if err != nil {
					return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
				}
				if err := foldFloatConv.op.SetAffine(aff); err != nil {
					return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
				}
			case foldDense != nil:
				if err := foldDense.op.SetThresholds(th); err != nil {
					return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
				}
				aff, err := core.NewAffineFromBatchNorm(params.Gamma, params.Beta, params.Mean, params.Variance, eps)
				if err != nil {
					return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
				}
				if err := foldDense.op.SetAffine(aff); err != nil {
					return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
				}
			}
			actFolded = true
		}
	}
	if n.output == nil {
		return nil, errors.New("graph: network must end in a dense classifier")
	}
	n.unfused = b.noFuse
	if !b.noFuse {
		n.fuse()
	}
	n.uncompressed = b.noPress
	return n, nil
}
