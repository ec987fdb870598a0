// Benchmarks regenerating the paper's tables and figures as testing.B
// targets (one family per figure — see DESIGN.md §4), plus ablation
// benches for the design choices BitFlow makes. The cmd/bitflow-bench
// harness prints the same experiments as formatted tables with
// paper-value columns.
//
// Figure benches run the paper-scale Table IV shapes; ablations use
// smaller shapes where the contrast is unchanged.
package bitflow_test

import (
	"sync"
	"testing"

	"bitflow/internal/baseline"
	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

const benchSeed = 2018

func detect() sched.Features { return sched.Detect() }

// ---------------------------------------------------------------------
// Fig. 7: single-core float vs unoptimized-binary vs BitFlow, per op.

// convBench holds a ready-to-run conv trio.
type convBench struct {
	in     *tensor.Tensor
	filt   *tensor.Filter
	cfg    workload.OpConfig
	conv   *core.Conv
	packed *bitpack.Packed
	pOut   *bitpack.Packed
	im2col *baseline.BinaryIm2colConv
}

var convCache sync.Map

func convFor(b *testing.B, name string) *convBench {
	if v, ok := convCache.Load(name); ok {
		return v.(*convBench)
	}
	cfg, ok := workload.FindOp(name)
	if !ok {
		b.Fatalf("no such op %s", name)
	}
	r := workload.NewRNG(benchSeed)
	shape, err := sched.InferConv(cfg.H, cfg.W, cfg.C, cfg.K, cfg.KH, cfg.KW, cfg.Stride, cfg.Pad)
	if err != nil {
		b.Fatal(err)
	}
	plan := sched.Select(cfg.C, detect())
	cb := &convBench{
		cfg:  cfg,
		in:   workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C),
		filt: workload.PM1Filter(r, cfg.K, cfg.KH, cfg.KW, cfg.C),
	}
	cb.conv, err = core.NewConv(shape, plan, cb.filt)
	if err != nil {
		b.Fatal(err)
	}
	cb.packed = cb.conv.NewInput()
	bitpack.PackTensorInto(cb.in, cb.packed)
	outPlan := sched.Select(cfg.K, detect())
	cb.pOut = bitpack.NewPacked(shape.OutH, shape.OutW, cfg.K, outPlan.Words, 0, 0)
	cb.im2col = baseline.NewBinaryIm2colConv(cb.filt, cfg.Stride, cfg.Pad)
	convCache.Store(name, cb)
	return cb
}

func benchConvFloat(b *testing.B, name string) {
	cb := convFor(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.ConvDirect(cb.in, cb.filt, cb.cfg.Stride, cb.cfg.Pad, 0, 1)
	}
}

func benchConvUnopt(b *testing.B, name string) {
	cb := convFor(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.im2col.Forward(cb.in, 1)
	}
}

func benchConvBitFlow(b *testing.B, name string, threads int) {
	cb := convFor(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.conv.ForwardPacked(cb.packed, nil, cb.pOut, exec.Threads(threads))
	}
}

func BenchmarkFig7Conv21Float(b *testing.B)   { benchConvFloat(b, "conv2.1") }
func BenchmarkFig7Conv21Unopt(b *testing.B)   { benchConvUnopt(b, "conv2.1") }
func BenchmarkFig7Conv21BitFlow(b *testing.B) { benchConvBitFlow(b, "conv2.1", 1) }
func BenchmarkFig7Conv31Float(b *testing.B)   { benchConvFloat(b, "conv3.1") }
func BenchmarkFig7Conv31Unopt(b *testing.B)   { benchConvUnopt(b, "conv3.1") }
func BenchmarkFig7Conv31BitFlow(b *testing.B) { benchConvBitFlow(b, "conv3.1", 1) }
func BenchmarkFig7Conv41Float(b *testing.B)   { benchConvFloat(b, "conv4.1") }
func BenchmarkFig7Conv41Unopt(b *testing.B)   { benchConvUnopt(b, "conv4.1") }
func BenchmarkFig7Conv41BitFlow(b *testing.B) { benchConvBitFlow(b, "conv4.1", 1) }
func BenchmarkFig7Conv51Float(b *testing.B)   { benchConvFloat(b, "conv5.1") }
func BenchmarkFig7Conv51Unopt(b *testing.B)   { benchConvUnopt(b, "conv5.1") }
func BenchmarkFig7Conv51BitFlow(b *testing.B) { benchConvBitFlow(b, "conv5.1", 1) }

// Dense trio (fc6/fc7).

type denseBench struct {
	cfg     workload.OpConfig
	w       *tensor.Matrix
	inVals  []float32
	d       *core.Dense
	packed  []uint64
	out     []int32
	outF    []float32
	wPacked *bitpack.PackedMatrix
	scratch []uint64
}

var denseCache sync.Map

func denseFor(b *testing.B, name string) *denseBench {
	if v, ok := denseCache.Load(name); ok {
		return v.(*denseBench)
	}
	cfg, ok := workload.FindOp(name)
	if !ok {
		b.Fatalf("no such op %s", name)
	}
	r := workload.NewRNG(benchSeed)
	shape, err := sched.InferFC(cfg.N, cfg.K)
	if err != nil {
		b.Fatal(err)
	}
	plan := sched.Select(cfg.N, detect())
	db := &denseBench{cfg: cfg, w: workload.PM1Matrix(r, cfg.N, cfg.K)}
	db.inVals = make([]float32, cfg.N)
	for i := range db.inVals {
		db.inVals[i] = r.PM1()
	}
	db.d, err = core.NewDense(shape, plan, db.w)
	if err != nil {
		b.Fatal(err)
	}
	db.packed = db.d.NewInput()
	bitpack.PackVectorInto(db.packed, db.inVals)
	db.out = make([]int32, cfg.K)
	db.outF = make([]float32, cfg.K)
	db.wPacked = bitpack.PackMatrixBT(db.w, bitpack.WordsFor(cfg.N))
	db.scratch = make([]uint64, bitpack.WordsFor(cfg.N))
	denseCache.Store(name, db)
	return db
}

func benchDenseFloat(b *testing.B, name string) {
	db := denseFor(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.DenseFloat(db.inVals, db.w, db.outF, 1)
	}
}

func benchDenseUnopt(b *testing.B, name string) {
	db := denseFor(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitpack.PackVectorInto(db.scratch, db.inVals)
		for k := 0; k < db.cfg.K; k++ {
			acc := kernels.XorPop64(db.scratch, db.wPacked.RowWords(k))
			db.out[k] = int32(db.cfg.N) - 2*int32(acc)
		}
	}
}

func benchDenseBitFlow(b *testing.B, name string, threads int) {
	db := denseFor(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.d.Forward(db.packed, db.out, exec.Threads(threads))
	}
}

func BenchmarkFig7Fc6Float(b *testing.B)   { benchDenseFloat(b, "fc6") }
func BenchmarkFig7Fc6Unopt(b *testing.B)   { benchDenseUnopt(b, "fc6") }
func BenchmarkFig7Fc6BitFlow(b *testing.B) { benchDenseBitFlow(b, "fc6", 1) }
func BenchmarkFig7Fc7Float(b *testing.B)   { benchDenseFloat(b, "fc7") }
func BenchmarkFig7Fc7Unopt(b *testing.B)   { benchDenseUnopt(b, "fc7") }
func BenchmarkFig7Fc7BitFlow(b *testing.B) { benchDenseBitFlow(b, "fc7", 1) }

// Pool trio (pool4/pool5).

type poolBench struct {
	cfg    workload.OpConfig
	in     *tensor.Tensor
	pool   *core.Pool
	packed *bitpack.Packed
	pOut   *bitpack.Packed
}

var poolCache sync.Map

func poolFor(b *testing.B, name string) *poolBench {
	if v, ok := poolCache.Load(name); ok {
		return v.(*poolBench)
	}
	cfg, ok := workload.FindOp(name)
	if !ok {
		b.Fatalf("no such op %s", name)
	}
	r := workload.NewRNG(benchSeed)
	shape, err := sched.InferPool(cfg.H, cfg.W, cfg.C, cfg.KH, cfg.KW, cfg.Stride)
	if err != nil {
		b.Fatal(err)
	}
	plan := sched.Select(cfg.C, detect())
	pb := &poolBench{cfg: cfg, in: workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C)}
	pb.pool, err = core.NewPool(shape, plan.Words)
	if err != nil {
		b.Fatal(err)
	}
	pb.packed = bitpack.PackTensor(pb.in, plan.Words, 0, 0)
	pb.pOut = bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, plan.Words, 0, 0)
	poolCache.Store(name, pb)
	return pb
}

func BenchmarkFig7Pool4Float(b *testing.B) {
	pb := poolFor(b, "pool4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.MaxPoolFloat(pb.in, pb.cfg.KH, pb.cfg.KW, pb.cfg.Stride, 1)
	}
}

func BenchmarkFig7Pool4BitFlow(b *testing.B) {
	pb := poolFor(b, "pool4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.pool.Forward(pb.packed, pb.pOut, exec.Serial())
	}
}

func BenchmarkFig7Pool5Float(b *testing.B) {
	pb := poolFor(b, "pool5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.MaxPoolFloat(pb.in, pb.cfg.KH, pb.cfg.KW, pb.cfg.Stride, 1)
	}
}

func BenchmarkFig7Pool5BitFlow(b *testing.B) {
	pb := poolFor(b, "pool5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.pool.Forward(pb.packed, pb.pOut, exec.Serial())
	}
}

// ---------------------------------------------------------------------
// Figs. 8–9: multi-core thread sweeps of the BitFlow operators. On hosts
// with fewer cores these measure the dispatch overhead; the harness adds
// the documented scaling model.

func BenchmarkFig8Conv21Threads4(b *testing.B)  { benchConvBitFlow(b, "conv2.1", 4) }
func BenchmarkFig8Conv51Threads4(b *testing.B)  { benchConvBitFlow(b, "conv5.1", 4) }
func BenchmarkFig8Fc6Threads4(b *testing.B)     { benchDenseBitFlow(b, "fc6", 4) }
func BenchmarkFig9Conv21Threads16(b *testing.B) { benchConvBitFlow(b, "conv2.1", 16) }
func BenchmarkFig9Conv21Threads64(b *testing.B) { benchConvBitFlow(b, "conv2.1", 64) }
func BenchmarkFig9Conv51Threads16(b *testing.B) { benchConvBitFlow(b, "conv5.1", 16) }
func BenchmarkFig9Conv51Threads64(b *testing.B) { benchConvBitFlow(b, "conv5.1", 64) }
func BenchmarkFig9Fc6Threads64(b *testing.B)    { benchDenseBitFlow(b, "fc6", 64) }

// ---------------------------------------------------------------------
// Fig. 10 is Fig. 7's BitFlow column against the GPU model (analytic, no
// bench needed beyond BitFlow times). Fig. 11: end-to-end VGG.

var (
	vggOnce sync.Once
	vgg16   *graph.Network
	vgg19   *graph.Network
	vggX    *tensor.Tensor
)

func vggSetup(b *testing.B) {
	vggOnce.Do(func() {
		ws := graph.RandomWeights{Seed: benchSeed}
		var err error
		if vgg16, err = graph.VGG16(detect(), ws); err != nil {
			b.Fatal(err)
		}
		if vgg19, err = graph.VGG19(detect(), ws); err != nil {
			b.Fatal(err)
		}
		vggX = workload.RandTensor(workload.NewRNG(benchSeed), 224, 224, 3)
	})
}

func BenchmarkFig11VGG16(b *testing.B) {
	vggSetup(b)
	vgg16.Infer(vggX)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vgg16.Infer(vggX)
	}
}

func BenchmarkFig11VGG19(b *testing.B) {
	vggSetup(b)
	vgg19.Infer(vggX)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vgg19.Infer(vggX)
	}
}

// ---------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out.

// Ablation 1 — kernel width ladder: the same conv5.1-shaped operator
// forced onto each tier (what Fig. 7's vector gain isolates).
func benchConvWidth(b *testing.B, cap kernels.Width) {
	cfg, _ := workload.FindOp("conv5.1")
	r := workload.NewRNG(benchSeed)
	shape, _ := sched.InferConv(cfg.H, cfg.W, cfg.C, cfg.K, cfg.KH, cfg.KW, cfg.Stride, cfg.Pad)
	feat := detect().WithMaxWidth(cap)
	plan := sched.Select(cfg.C, feat)
	cv, err := core.NewConv(shape, plan, workload.PM1Filter(r, cfg.K, cfg.KH, cfg.KW, cfg.C))
	if err != nil {
		b.Fatal(err)
	}
	in := cv.NewInput()
	bitpack.PackTensorInto(workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C), in)
	out := bitpack.NewPacked(shape.OutH, shape.OutW, cfg.K, plan.Words, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.ForwardPacked(in, nil, out, exec.Serial())
	}
}

func BenchmarkAblationWidth64(b *testing.B)  { benchConvWidth(b, kernels.W64) }
func BenchmarkAblationWidth128(b *testing.B) { benchConvWidth(b, kernels.W128) }
func BenchmarkAblationWidth256(b *testing.B) { benchConvWidth(b, kernels.W256) }
func BenchmarkAblationWidth512(b *testing.B) { benchConvWidth(b, kernels.W512) }

// Ablation 2 — fused vs staged weight transform (Table III).
func BenchmarkAblationFusedTransform(b *testing.B) {
	r := workload.NewRNG(benchSeed)
	w := workload.RandMatrix(r, 4096, 1024)
	wpr := bitpack.WordsFor(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitpack.PackMatrixBT(w, wpr)
	}
}

func BenchmarkAblationStagedTransform(b *testing.B) {
	r := workload.NewRNG(benchSeed)
	w := workload.RandMatrix(r, 4096, 1024)
	wpr := bitpack.WordsFor(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitpack.StagedPackMatrixBT(w, wpr)
	}
}

// Ablation 3 — NHWC channel packing vs NCHW-style conversion first: what
// the locality-aware layout saves on the packing path.
func BenchmarkAblationPackNHWC(b *testing.B) {
	r := workload.NewRNG(benchSeed)
	in := workload.PM1Tensor(r, 56, 56, 128)
	p := bitpack.NewPacked(56, 56, 128, 2, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitpack.PackTensorInto(in, p)
	}
}

func BenchmarkAblationPackFromNCHW(b *testing.B) {
	r := workload.NewRNG(benchSeed)
	in := workload.PM1Tensor(r, 56, 56, 128)
	nchw := in.ToNCHW()
	p := bitpack.NewPacked(56, 56, 128, 2, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// An NCHW-native framework must first interleave channels to
		// pack along C — the layout change BitFlow avoids.
		t := tensor.FromNCHW(56, 56, 128, nchw)
		bitpack.PackTensorInto(t, p)
	}
}

// Ablation 4 — zero-cost padding (pre-allocated margins) vs copying into
// an explicitly padded buffer before each conv.
func BenchmarkAblationZeroCostPad(b *testing.B) {
	cfg, _ := workload.FindOp("conv3.1")
	r := workload.NewRNG(benchSeed)
	shape, _ := sched.InferConv(cfg.H, cfg.W, cfg.C, cfg.K, cfg.KH, cfg.KW, cfg.Stride, cfg.Pad)
	plan := sched.Select(cfg.C, detect())
	cv, _ := core.NewConv(shape, plan, workload.PM1Filter(r, cfg.K, cfg.KH, cfg.KW, cfg.C))
	in := workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C)
	packed := cv.NewInput()
	out := bitpack.NewPacked(shape.OutH, shape.OutW, cfg.K, sched.Select(cfg.K, detect()).Words, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Producer writes the interior (simulated by the pack), conv
		// reads through the margins: no copy.
		bitpack.PackTensorInto(in, packed)
		cv.ForwardPacked(packed, nil, out, exec.Serial())
	}
}

func BenchmarkAblationCopyPad(b *testing.B) {
	cfg, _ := workload.FindOp("conv3.1")
	r := workload.NewRNG(benchSeed)
	// Conventional first-convolution-then-padding: materialize a padded
	// float tensor, then pack it, then run an unpadded conv.
	shape, _ := sched.InferConv(cfg.H+2, cfg.W+2, cfg.C, cfg.K, cfg.KH, cfg.KW, cfg.Stride, 0)
	plan := sched.Select(cfg.C, detect())
	cv, _ := core.NewConv(shape, plan, workload.PM1Filter(r, cfg.K, cfg.KH, cfg.KW, cfg.C))
	in := workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C)
	packed := cv.NewInput()
	out := bitpack.NewPacked(shape.OutH, shape.OutW, cfg.K, sched.Select(cfg.K, detect()).Words, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		padded := in.PadSpatial(1, -1) // the copy the margins avoid
		bitpack.PackTensorInto(padded, packed)
		cv.ForwardPacked(packed, nil, out, exec.Serial())
	}
}

// Ablation 5 — bgemm register blocking / tiling: kernels.BGemm with and
// without the K-tile sized to cache.
func benchBGemmTile(b *testing.B, ktile int) {
	r := workload.NewRNG(benchSeed)
	n, k := 4096, 1024
	w := workload.PM1Matrix(r, n, k)
	wPacked := bitpack.PackMatrixBT(w, bitpack.WordsFor(n))
	in := make([]uint64, bitpack.WordsFor(n))
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = r.PM1()
	}
	bitpack.PackVectorInto(in, vals)
	out := make([]int32, k)
	opts := kernels.BGemmOpts{Width: kernels.W512, KTile: ktile}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.BGemm(in, 1, wPacked.Words, k, bitpack.WordsFor(n), n, out, opts)
	}
}

func BenchmarkAblationBGemmTile8(b *testing.B)    { benchBGemmTile(b, 8) }
func BenchmarkAblationBGemmTile64(b *testing.B)   { benchBGemmTile(b, 64) }
func BenchmarkAblationBGemmTile1024(b *testing.B) { benchBGemmTile(b, 1024) }

// Ablation 6 — im2col binary conv with the scalar vs the widest kernel
// tier: separates the layout effect from the vectorization effect.
func benchIm2colKernel(b *testing.B, f kernels.XorPopFunc) {
	r := workload.NewRNG(benchSeed)
	in := workload.PM1Tensor(r, 28, 28, 128)
	filt := workload.PM1Filter(r, 64, 3, 3, 128)
	bc := baseline.NewBinaryIm2colConv(filt, 1, 1)
	bc.Kernel = f
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Forward(in, 1)
	}
}

func BenchmarkAblationIm2colScalar(b *testing.B) { benchIm2colKernel(b, kernels.XorPop64) }
func BenchmarkAblationIm2colW512(b *testing.B)   { benchIm2colKernel(b, kernels.ForWidth(kernels.W512)) }

// Ablation 7 — folded thresholds vs plain sign: batch-norm folding must
// be free on the hot path (an integer compare either way).
func benchConvThresholds(b *testing.B, withBN bool) {
	cfg, _ := workload.FindOp("conv4.1")
	r := workload.NewRNG(benchSeed)
	shape, _ := sched.InferConv(cfg.H, cfg.W, cfg.C, cfg.K, cfg.KH, cfg.KW, cfg.Stride, cfg.Pad)
	plan := sched.Select(cfg.C, detect())
	cv, err := core.NewConv(shape, plan, workload.PM1Filter(r, cfg.K, cfg.KH, cfg.KW, cfg.C))
	if err != nil {
		b.Fatal(err)
	}
	if withBN {
		gamma := make([]float32, cfg.K)
		beta := make([]float32, cfg.K)
		mean := make([]float32, cfg.K)
		variance := make([]float32, cfg.K)
		for c := range gamma {
			gamma[c] = 1
			variance[c] = 1
			mean[c] = float32(c % 7)
		}
		th, err := core.FoldBatchNorm(gamma, beta, mean, variance, 1e-5)
		if err != nil {
			b.Fatal(err)
		}
		if err := cv.SetThresholds(th); err != nil {
			b.Fatal(err)
		}
	}
	in := cv.NewInput()
	bitpack.PackTensorInto(workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C), in)
	out := bitpack.NewPacked(shape.OutH, shape.OutW, cfg.K, sched.Select(cfg.K, detect()).Words, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.ForwardPacked(in, nil, out, exec.Serial())
	}
}

func BenchmarkAblationPlainSign(b *testing.B)       { benchConvThresholds(b, false) }
func BenchmarkAblationFoldedThreshold(b *testing.B) { benchConvThresholds(b, true) }

// Ablation 8 — multi-base conv: cost scales ~linearly with the base
// count while the weight approximation tightens (ABC-Net direction).
func benchMultiBase(b *testing.B, m int) {
	r := workload.NewRNG(benchSeed)
	shape, _ := sched.InferConv(28, 28, 256, 64, 3, 3, 1, 1)
	plan := sched.Select(256, detect())
	mc, err := core.NewMultiBaseConv(shape, plan, workload.RandFilter(r, 64, 3, 3, 256), m)
	if err != nil {
		b.Fatal(err)
	}
	in := mc.NewInput()
	bitpack.PackTensorInto(workload.PM1Tensor(r, 28, 28, 256), in)
	out := tensor.New(shape.OutH, shape.OutW, shape.OutC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Forward(in, out, exec.Serial())
	}
}

func BenchmarkAblationMultiBase1(b *testing.B) { benchMultiBase(b, 1) }
func BenchmarkAblationMultiBase2(b *testing.B) { benchMultiBase(b, 2) }
func BenchmarkAblationMultiBase4(b *testing.B) { benchMultiBase(b, 4) }

// Ablation 9 — mixed-precision first layer vs binarized first layer on
// the VGG conv1.1 geometry (C = 3): the float stem costs real FLOPs but
// avoids the 61 wasted pad lanes and the input information loss.
func BenchmarkAblationFirstLayerBinary(b *testing.B) {
	r := workload.NewRNG(benchSeed)
	shape, _ := sched.InferConv(56, 56, 3, 64, 3, 3, 1, 1)
	plan := sched.Select(3, detect())
	cv, err := core.NewConv(shape, plan, workload.PM1Filter(r, 64, 3, 3, 3))
	if err != nil {
		b.Fatal(err)
	}
	in := cv.NewInput()
	bitpack.PackTensorInto(workload.PM1Tensor(r, 56, 56, 3), in)
	out := bitpack.NewPacked(shape.OutH, shape.OutW, 64, 1, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.ForwardPacked(in, nil, out, exec.Serial())
	}
}

func BenchmarkAblationFirstLayerFloat(b *testing.B) {
	r := workload.NewRNG(benchSeed)
	shape, _ := sched.InferConv(56, 56, 3, 64, 3, 3, 1, 1)
	fc, err := core.NewFloatConv(shape, workload.RandFilter(r, 64, 3, 3, 3))
	if err != nil {
		b.Fatal(err)
	}
	in := workload.RandTensor(r, 56, 56, 3)
	out := bitpack.NewPacked(shape.OutH, shape.OutW, 64, 1, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Forward(in, out, exec.Serial())
	}
}

// Ablation 10 — multi-bit activations (DoReFa direction): B-bit
// activations cost B binary convolutions.
func benchMultiBit(b *testing.B, bits int) {
	r := workload.NewRNG(benchSeed)
	shape, _ := sched.InferConv(28, 28, 256, 64, 3, 3, 1, 1)
	plan := sched.Select(256, detect())
	mb, err := core.NewMultiBitConv(shape, plan, workload.RandFilter(r, 64, 3, 3, 256), bits, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	planes := mb.NewPlanes()
	mb.PackPlanes(workload.RandTensor(r, 28, 28, 256), planes)
	out := tensor.New(shape.OutH, shape.OutW, shape.OutC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.Forward(planes, out, exec.Serial())
	}
}

func BenchmarkAblationMultiBit1(b *testing.B) { benchMultiBit(b, 1) }
func BenchmarkAblationMultiBit2(b *testing.B) { benchMultiBit(b, 2) }
func BenchmarkAblationMultiBit4(b *testing.B) { benchMultiBit(b, 4) }

// ---------------------------------------------------------------------
// Micro-batching: per-image cost of InferBatch, serial and on a 2-worker
// pool at budget 2 (this host's core count; wider pools are
// unverified_on_this_host), next to the same eight images as eight Infer
// calls. InferBatch hands whole lanes to the workers, Infer splits every
// layer across them, so the Pooled2 pair isolates what one dispatch per
// batch saves over one per layer per image:
//
//	go test -run '^$' -bench 'InferBatch8|InferLoop8' -count 10 .

var (
	batchNetOnce sync.Once
	batchNet     *graph.Network
	batchXs      []*tensor.Tensor
)

// batchSetup builds the shared TinyVGG once and attaches the execution
// context the benchmark runs under: serial, or a fresh pool of `workers`
// at the same budget, closed when the benchmark ends.
func batchSetup(b *testing.B, workers int) {
	batchNetOnce.Do(func() {
		var err error
		if batchNet, err = graph.TinyVGG(detect(), graph.RandomWeights{Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
		batchNet.EnsureBatch(16)
		r := workload.NewRNG(benchSeed + 7)
		for i := 0; i < 16; i++ {
			batchXs = append(batchXs, workload.RandTensor(r, batchNet.InH, batchNet.InW, batchNet.InC))
		}
	})
	ec := exec.Serial()
	if workers > 1 {
		p := exec.NewPool(workers)
		b.Cleanup(p.Close)
		ec = exec.Pooled(p, workers)
	}
	batchNet.SetExec(ec)
}

// benchImages times call, which infers len(xs) images, and reports the
// per-image cost.
func benchImages(b *testing.B, xs []*tensor.Tensor, call func([]*tensor.Tensor) error) {
	if err := call(xs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(xs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perImage := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(xs))
	b.ReportMetric(perImage/1e6, "ms/image")
}

func benchInferBatch(b *testing.B, size, workers int) {
	batchSetup(b, workers)
	benchImages(b, batchXs[:size], func(xs []*tensor.Tensor) error {
		_, err := batchNet.InferBatch(xs)
		return err
	})
}

func benchInferLoop(b *testing.B, size, workers int) {
	batchSetup(b, workers)
	benchImages(b, batchXs[:size], func(xs []*tensor.Tensor) error {
		for _, x := range xs {
			if _, err := batchNet.InferChecked(x); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkInferBatch1(b *testing.B)        { benchInferBatch(b, 1, 1) }
func BenchmarkInferBatch2(b *testing.B)        { benchInferBatch(b, 2, 1) }
func BenchmarkInferBatch4(b *testing.B)        { benchInferBatch(b, 4, 1) }
func BenchmarkInferBatch8(b *testing.B)        { benchInferBatch(b, 8, 1) }
func BenchmarkInferBatch16(b *testing.B)       { benchInferBatch(b, 16, 1) }
func BenchmarkInferBatch8Pooled2(b *testing.B) { benchInferBatch(b, 8, 2) }
func BenchmarkInferLoop8(b *testing.B)         { benchInferLoop(b, 8, 1) }
func BenchmarkInferLoop8Pooled2(b *testing.B)  { benchInferLoop(b, 8, 2) }
