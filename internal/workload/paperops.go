package workload

import "fmt"

// OpKind classifies a benchmark operator from paper Table IV.
type OpKind int

const (
	// OpConv is a 3×3, stride-1, pad-1 binary convolution.
	OpConv OpKind = iota
	// OpFC is a binary fully connected operator (M=1 bgemm).
	OpFC
	// OpPool is a 2×2, stride-2 binary max pool.
	OpPool
)

// String returns the kind name.
func (k OpKind) String() string {
	switch k {
	case OpConv:
		return "conv"
	case OpFC:
		return "fc"
	case OpPool:
		return "pool"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// OpConfig describes one benchmark operator row of paper Table IV.
// For convolutions H, W, C are the input feature-map dimensions and K the
// number of filters (3×3, stride 1, pad 1 — "The VGG network uses 3×3
// filters exclusively"). For fully connected operators N is the number of
// input neurons and K the number of output neurons (weight matrix N×K,
// input 1×N). For pools H, W, C describe the input and the window is 2×2
// with stride 2.
type OpConfig struct {
	Name   string
	Kind   OpKind
	H, W   int
	C      int
	K      int
	N      int // FC only: input neurons
	KH, KW int // conv/pool window
	Stride int
	Pad    int
}

// PaperOps lists the eight benchmark operators of paper Table IV with the
// standard VGG-16 shapes (the table's own numbers): conv2.1, conv3.1,
// conv4.1, conv5.1, fc6, fc7, pool4, pool5.
func PaperOps() []OpConfig {
	return []OpConfig{
		{Name: "conv2.1", Kind: OpConv, H: 112, W: 112, C: 64, K: 128, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "conv3.1", Kind: OpConv, H: 56, W: 56, C: 128, K: 256, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "conv4.1", Kind: OpConv, H: 28, W: 28, C: 256, K: 512, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "conv5.1", Kind: OpConv, H: 14, W: 14, C: 512, K: 512, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "fc6", Kind: OpFC, N: 7 * 7 * 512, K: 4096},
		{Name: "fc7", Kind: OpFC, N: 4096, K: 4096},
		{Name: "pool4", Kind: OpPool, H: 28, W: 28, C: 512, KH: 2, KW: 2, Stride: 2},
		{Name: "pool5", Kind: OpPool, H: 14, W: 14, C: 512, KH: 2, KW: 2, Stride: 2},
	}
}

// FindOp returns the Table IV config with the given name.
//
//bitflow:keep test helper: bench_test.go's paper-figure benchmarks look Table IV layers up by name
func FindOp(name string) (OpConfig, bool) {
	for _, op := range PaperOps() {
		if op.Name == name {
			return op, true
		}
	}
	return OpConfig{}, false
}

// SmallOps returns scaled-down versions of the Table IV operators for use
// in unit tests and -short benchmark runs: same channel structure (so the
// scheduler picks the same kernels), smaller spatial extents.
func SmallOps() []OpConfig {
	return []OpConfig{
		{Name: "conv2.1s", Kind: OpConv, H: 14, W: 14, C: 64, K: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "conv3.1s", Kind: OpConv, H: 10, W: 10, C: 128, K: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "conv4.1s", Kind: OpConv, H: 8, W: 8, C: 256, K: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "conv5.1s", Kind: OpConv, H: 6, W: 6, C: 512, K: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "fc6s", Kind: OpFC, N: 2048, K: 256},
		{Name: "fc7s", Kind: OpFC, N: 1024, K: 256},
		{Name: "pool4s", Kind: OpPool, H: 8, W: 8, C: 512, KH: 2, KW: 2, Stride: 2},
		{Name: "pool5s", Kind: OpPool, H: 6, W: 6, C: 512, KH: 2, KW: 2, Stride: 2},
	}
}

// String renders the config as a Table IV row.
func (c OpConfig) String() string {
	switch c.Kind {
	case OpFC:
		return fmt.Sprintf("%-8s %s N=%d K=%d", c.Name, c.Kind, c.N, c.K)
	default:
		return fmt.Sprintf("%-8s %s %dx%dx%d K=%d %dx%d s=%d p=%d",
			c.Name, c.Kind, c.H, c.W, c.C, c.K, c.KH, c.KW, c.Stride, c.Pad)
	}
}
