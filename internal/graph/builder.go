package graph

import (
	"errors"
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
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

// opSource supplies constructed operators per layer, each running at
// the given kernel tier. The float path (Build) fetches float weights and
// packs them; the deserialization path (Load) hands back operators
// rebuilt from stored packed weights.
type opSource interface {
	conv(name string, shape sched.ConvShape, tier kernels.Width) (*core.Conv, error)
	dense(name string, shape sched.FCShape, tier kernels.Width) (*core.Dense, error)
	floatConv(name string, shape sched.ConvShape) (*core.FloatConv, error)
	// bias returns the k-channel bias of the conv, or with dense the
	// dense layer, called name; nil when it has none.
	bias(name string, k int, dense bool) ([]float32, error)
	// batchNorm returns the parameters for a BatchNorm spec, or nil when
	// the activation is already baked in (the packed-model load path).
	batchNorm(name string, channels int) (*BNParams, error)
}

// floatSource adapts a WeightSource to opSource.
type floatSource struct{ ws WeightSource }

func (f floatSource) conv(name string, shape sched.ConvShape, tier kernels.Width) (*core.Conv, error) {
	w, err := f.ws.ConvFilter(name, shape.K, shape.KH, shape.KW, shape.InC)
	if err != nil {
		return nil, fmt.Errorf("graph: weights for conv %q: %w", name, err)
	}
	return core.NewConv(shape, tier, w)
}

func (f floatSource) dense(name string, shape sched.FCShape, tier kernels.Width) (*core.Dense, error) {
	w, err := f.ws.DenseMatrix(name, shape.N, shape.K)
	if err != nil {
		return nil, fmt.Errorf("graph: weights for dense %q: %w", name, err)
	}
	return core.NewDense(shape, tier, w)
}

func (f floatSource) floatConv(name string, shape sched.ConvShape) (*core.FloatConv, error) {
	w, err := f.ws.ConvFilter(name, shape.K, shape.KH, shape.KW, shape.InC)
	if err != nil {
		return nil, fmt.Errorf("graph: weights for float conv %q: %w", name, err)
	}
	return core.NewFloatConv(shape, w)
}

func (f floatSource) bias(name string, k int, dense bool) ([]float32, error) {
	bs, ok := f.ws.(BiasSource)
	switch {
	case !ok:
		return nil, nil
	case dense:
		return bs.DenseBias(name, k)
	}
	return bs.ConvBias(name, k)
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

// Build compiles the recorded layers — infers every shape, selects
// kernels, fetches and bit-packs weights — and lays the pre-allocated
// buffer chain over them.
func (b *Builder) Build(ws WeightSource) (*Network, error) {
	n, err := b.compile(floatSource{ws})
	if err == nil {
		err = n.lay()
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

// node is one compiled layer: the conv, pool or dense spec it came from,
// the shape of the plane it reads and the operator that computes it.
// Compile makes the nodes once; every network laid over them (the
// original, its clones and its batch lanes) shares them read-only.
type node struct {
	sp spec
	// h×w positions of c channels, packed in words words each, is the
	// input plane; a dense layer fed by another reads 1×1×N.
	h, w, c, words int

	conv  *core.Conv
	pool  *core.Pool
	dense *core.Dense
	fconv *core.FloatConv
}

// compile is the build's first phase. It turns the specs into the node
// list: every shape inferred, every operator made by src, every bias and
// batch-norm folded into the operator it follows. It allocates no
// activation buffer; lay does, over the list it returns.
func (b *Builder) compile(src opSource) (*Network, error) {
	if len(b.specs) == 0 {
		return nil, errors.New("graph: empty network")
	}
	if b.inH < 1 || b.inW < 1 || b.inC < 1 {
		return nil, fmt.Errorf("graph: input %dx%dx%d must be positive", b.inH, b.inW, b.inC)
	}
	n := &Network{
		Name: b.name, InH: b.inH, InW: b.inW, InC: b.inC,
		Feat: b.feat,
		arch: append([]spec(nil), b.specs...),
	}

	curH, curW, curC := b.inH, b.inW, b.inC
	flat := false
	curN := 0
	// Every conv and dense runs at the machine's tier: the sweeps mask
	// their own tails, so no channel count asks for a narrower one.
	tier := b.feat.MaxWidth.Tier()

	// lastComp is the index of the final computational spec; trailing
	// BatchNorm specs modify it rather than follow it.
	lastComp := -1
	for i, sp := range b.specs {
		switch sp.kind {
		case specConv, specPool, specDense, specFloatConv:
			lastComp = i
		}
	}

	// fold is the weighted node a BatchNorm spec folds into: it must
	// immediately follow its conv or dense. actFolded records that a
	// bias or batch-norm already folded into it.
	var fold *node
	var actFolded bool

	for i, sp := range b.specs {
		if sp.kind != specBatchNorm {
			fold, actFolded = nil, false
		}
		if i == lastComp && sp.kind != specDense {
			return nil, fmt.Errorf("graph: network must end in a dense classifier, not %q", sp.name)
		}
		nd := &node{sp: sp, h: curH, w: curW, c: curC, words: bitpack.WordsFor(curC)}
		switch sp.kind {
		case specFloatConv:
			if i != 0 {
				return nil, fmt.Errorf("graph: float conv %q must be the first layer", sp.name)
			}
			shape, err := sched.InferConv(curH, curW, curC, sp.k, sp.kh, sp.kw, sp.stride, sp.pad)
			if err == nil {
				nd.fconv, err = src.floatConv(sp.name, shape)
			}
			if err != nil {
				return nil, fmt.Errorf("graph: float conv %q: %w", sp.name, err)
			}
			curH, curW, curC = shape.OutH, shape.OutW, shape.OutC

		case specConv:
			if flat {
				return nil, fmt.Errorf("graph: conv %q after flatten", sp.name)
			}
			shape, err := sched.InferConv(curH, curW, curC, sp.k, sp.kh, sp.kw, sp.stride, sp.pad)
			if err == nil {
				nd.conv, err = src.conv(sp.name, shape, tier)
			}
			if err != nil {
				return nil, fmt.Errorf("graph: conv %q: %w", sp.name, err)
			}
			curH, curW, curC = shape.OutH, shape.OutW, shape.OutC

		case specPool:
			if flat {
				return nil, fmt.Errorf("graph: pool %q after flatten", sp.name)
			}
			shape, err := sched.InferPool(curH, curW, curC, sp.kh, sp.kw, sp.stride)
			if err == nil {
				nd.pool, err = core.NewPool(shape, nd.words)
			}
			if err != nil {
				return nil, fmt.Errorf("graph: pool %q: %w", sp.name, err)
			}
			curH, curW, curC = shape.OutH, shape.OutW, shape.OutC

		case specFlatten:
			if flat {
				return nil, errors.New("graph: duplicate flatten")
			}
			// Mode switch only: the dense that follows reads the plane
			// flat.
			flat = true
			continue

		case specDense:
			flat = true
			if len(n.nodes) > 0 && n.nodes[len(n.nodes)-1].dense != nil {
				// A hidden dense feeds its packed sign bits straight in.
				nd.h, nd.w, nd.c, nd.words = 1, 1, curN, bitpack.WordsFor(curN)
			} else {
				// Flattening a spatial producer (or the network input):
				// the packed words of a margin-free plane are exactly
				// the flattened bit vector when C divides the word size.
				// Multi-pixel flatten needs every pixel's lanes to abut
				// exactly; a single pixel is trivially contiguous.
				// A plane this large is past lay's bound anyway;
				// refusing it here keeps N from overflowing.
				if curH > 8*maxModelBytes/curW/curC {
					return nil, fmt.Errorf("graph: dense %q flattens a %dx%dx%d plane over %d bytes", sp.name, curH, curW, curC, int64(maxModelBytes))
				}
				if curC%bitpack.WordBits != 0 && curH*curW != 1 {
					return nil, fmt.Errorf("graph: flatten requires channel count %d to be a multiple of %d", curC, bitpack.WordBits)
				}
				curN = curH * curW * curC
			}
			shape, err := sched.InferFC(curN, sp.units)
			if err == nil {
				nd.dense, err = src.dense(sp.name, shape, tier)
			}
			if err != nil {
				return nil, fmt.Errorf("graph: dense %q: %w", sp.name, err)
			}
			if i == lastComp {
				n.Classes = sp.units
			}
			curN = sp.units

		case specBatchNorm:
			channels := curC
			switch {
			case fold == nil:
				return nil, fmt.Errorf("graph: batch-norm %q does not directly follow a conv or dense layer", sp.name)
			case actFolded:
				return nil, fmt.Errorf("graph: batch-norm %q: layer already has a folded bias or batch-norm", sp.name)
			case fold.dense != nil:
				channels = curN
			}
			actFolded = true
			p, err := src.batchNorm(sp.name, channels)
			if err != nil {
				return nil, err
			}
			if p == nil {
				// Packed-model load path: the stored thresholds already
				// include this fold.
				continue
			}
			eps := p.Eps
			if eps == 0 {
				eps = 1e-5
			}
			th, err := core.FoldBatchNorm(p.Gamma, p.Beta, p.Mean, p.Variance, eps)
			var aff *core.Affine
			if err == nil {
				aff, err = core.NewAffineFromBatchNorm(p.Gamma, p.Beta, p.Mean, p.Variance, eps)
			}
			if err == nil {
				err = fold.activate(th, aff)
			}
			if err != nil {
				return nil, fmt.Errorf("graph: batch-norm %q: %w", sp.name, err)
			}
			continue
		}
		if nd.pool == nil {
			// A weighted node: a bias folds in now, a batch-norm next.
			k := sp.k
			if nd.dense != nil {
				k = sp.units
			}
			bias, err := src.bias(sp.name, k, nd.dense != nil)
			switch {
			case err != nil:
				return nil, fmt.Errorf("graph: bias for %q: %w", sp.name, err)
			case bias != nil && len(bias) != k:
				return nil, fmt.Errorf("graph: %q bias has %d entries, want %d", sp.name, len(bias), k)
			case bias != nil:
				if err := nd.activate(core.FoldBias(bias), core.NewAffineFromBias(bias)); err != nil {
					return nil, fmt.Errorf("graph: %q: %w", sp.name, err)
				}
				actFolded = true
			}
			fold = nd
		}
		n.nodes = append(n.nodes, nd)
	}
	if n.Classes == 0 {
		return nil, errors.New("graph: network must end in a dense classifier")
	}
	return n, nil
}

// activate folds an activation into nd's operator: a conv takes the
// thresholds, the float stem the affine, and a dense both (thresholds
// when hidden, the affine as the classifier).
func (nd *node) activate(th *core.Thresholds, aff *core.Affine) error {
	switch {
	case nd.conv != nil:
		return nd.conv.SetThresholds(th)
	case nd.fconv != nil:
		return nd.fconv.SetAffine(aff)
	}
	if err := nd.dense.SetThresholds(th); err != nil {
		return err
	}
	return nd.dense.SetAffine(aff)
}
