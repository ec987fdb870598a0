// Package bitflow is a stand-alone CPU inference engine for Binary
// Neural Networks, reproducing "BitFlow: Exploiting Vector Parallelism
// for Binary Neural Networks on CPU" (Hu et al., IPDPS 2018).
//
// The engine optimizes at three levels:
//
//   - gemm level: binary GEMM with tiling, unrolling and a fused
//     binarize+bit-pack+transpose weight transform;
//   - operator level: the PressedConv algorithm — channel-dimension
//     bit-packing in NHWC layout, XOR+popcount inner products, a vector
//     execution scheduler that picks the kernel tier per channel count,
//     and zero-cost spatial padding via pre-allocated margins;
//   - network level: one-time weight packing and full pre-allocation of
//     the activation buffer chain from the static graph.
//
// Quick start:
//
//	feat := bitflow.Detect()
//	net, err := bitflow.NewBuilder("demo", 32, 32, 64, feat).
//		Conv3x3("conv1", 64).
//		Pool("pool1", 2, 2, 2).
//		Dense("fc", 10).
//		Build(bitflow.RandomWeights{Seed: 42})
//	if err != nil { ... }
//	logits := net.Infer(x) // x: *bitflow.Tensor, 32×32×64 NHWC
//
// See examples/ for runnable programs and cmd/bitflow-bench for the
// harness regenerating the paper's figures and tables.
package bitflow

import (
	"io"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// Version identifies this release of the engine.
const Version = "1.0.0"

// Tensor is a dense float32 feature map in NHWC layout (batch 1).
type Tensor = tensor.Tensor

// Matrix is a dense row-major float32 matrix (dense-layer weights).
type Matrix = tensor.Matrix

// Filter is a bank of convolution filters in K×KH×KW×C layout.
type Filter = tensor.Filter

// NewTensor allocates a zeroed H×W×C tensor.
func NewTensor(h, w, c int) *Tensor { return tensor.New(h, w, c) }

// TensorFromSlice wraps an NHWC float slice without copying.
func TensorFromSlice(h, w, c int, data []float32) *Tensor {
	return tensor.FromSlice(h, w, c, data)
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// NewFilter allocates a zeroed K×KH×KW×C filter bank.
func NewFilter(k, kh, kw, c int) *Filter { return tensor.NewFilter(k, kh, kw, c) }

// Features describes the vector capabilities the scheduler may use.
type Features = sched.Features

// Width identifies a kernel tier (64/256/512-bit).
type Width = kernels.Width

// Kernel tiers, widest to narrowest.
const (
	W512 = kernels.W512
	W256 = kernels.W256
	W64  = kernels.W64
)

// Detect probes the current platform's vector capabilities. Set the
// BITFLOW_MAX_WIDTH environment variable (64/256/512) to cap the widest
// tier, e.g. to emulate an AVX2-only machine. Every conv and dense layer
// runs at Features.MaxWidth.Tier(), whatever its channel count.
func Detect() Features { return sched.Detect() }

// Network is a compiled binary neural network with pre-packed weights
// and a pre-allocated buffer chain. Not safe for concurrent Infer calls
// on the same instance.
type Network = graph.Network

// Builder assembles a sequential binary network.
type Builder = graph.Builder

// NewBuilder starts a network taking inH×inW×inC inputs.
func NewBuilder(name string, inH, inW, inC int, feat Features) *Builder {
	return graph.NewBuilder(name, inH, inW, inC, feat)
}

// WeightSource supplies float weights per layer; the engine binarizes
// and bit-packs them once at build time.
type WeightSource = graph.WeightSource

// BNParams holds batch-norm inference parameters for one layer.
type BNParams = graph.BNParams

// BatchNormSource is an optional WeightSource extension supplying
// batch-norm parameters; the engine folds them into integer sign
// thresholds (hidden layers) or a float affine (classifier) at build
// time, so no batch-norm arithmetic survives into inference.
type BatchNormSource = graph.BatchNormSource

// BiasSource is an optional WeightSource extension supplying per-channel
// biases, folded the same way.
type BiasSource = graph.BiasSource

// RandomWeights is a deterministic WeightSource keyed by seed and layer
// name — useful for benchmarking, where speed is independent of the
// trained values.
type RandomWeights = graph.RandomWeights

// VGG16 builds binarized VGG-16 (224×224×3 input, 1000 classes).
func VGG16(feat Features, ws WeightSource) (*Network, error) { return graph.VGG16(feat, ws) }

// VGG19 builds binarized VGG-19.
func VGG19(feat Features, ws WeightSource) (*Network, error) { return graph.VGG19(feat, ws) }

// TinyVGG builds a small VGG-shaped network (32×32×3 input, 10 classes)
// for demos and tests.
func TinyVGG(feat Features, ws WeightSource) (*Network, error) { return graph.TinyVGG(feat, ws) }

// Load deserializes a model previously written with Network.Save. The
// packed weights are kernel-tier independent: a model saved on one
// machine loads bit-identically on any other; only the kernel selection
// (from feat) differs.
func Load(r io.Reader, feat Features) (*Network, error) { return graph.Load(r, feat) }

// ExecPool is a persistent worker pool for multi-core operator dispatch.
// One process-wide pool can be shared by any number of networks; each
// inference borrows at most its context's thread budget from it.
type ExecPool = exec.Pool

// ExecCtx is an immutable execution context: a thread budget, an
// optional pool, an optional cancellation context and an optional
// per-layer timing observer. Attach one with Network.SetExec.
type ExecCtx = exec.Ctx

// NewExecPool starts a pool of n persistent workers (Close releases
// them). Use ExecDefault for a lazily created GOMAXPROCS-sized pool.
func NewExecPool(n int) *ExecPool { return exec.NewPool(n) }

// ExecDefault returns the process-wide GOMAXPROCS-sized pool, creating
// it on first use.
func ExecDefault() *ExecPool { return exec.Default() }

// Pooled returns a context running up to threads-wide parallel sections
// on p's persistent workers. The chunk split is identical to every other
// dispatch mode, so logits are bit-identical across all of them.
func Pooled(p *ExecPool, threads int) *ExecCtx { return exec.Pooled(p, threads) }

// Serial returns the single-threaded execution context.
func Serial() *ExecCtx { return exec.Serial() }
