package main

import (
	"fmt"

	"bitflow/internal/baseline"
	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// opRunners packages the three implementations the paper compares for
// one Table IV operator:
//
//   - float: the counterpart full-precision operator (the 1× baseline);
//   - unopt: the unoptimized BNN implementation — image-to-column
//     binary conv / scalar-kernel matvec / pack-at-runtime pool;
//   - bitflow: the optimized operator (PressedConv / bgemm / OR-pool on
//     pre-packed inputs, at the machine's kernel tier).
//
// BitFlow operators receive bit-packed inputs, as they would from the
// previous layer of a BNN; the unoptimized baselines pay their packing
// and unfolding at run time, as the paper describes.
type opRunners struct {
	cfg workload.OpConfig
	// units is the fused parallel work-unit count (OutH·OutW for
	// conv/pool, K for fc) feeding the scaling model.
	units int
	// tier is the kernel tier the conv or fc operator runs at; pools run
	// no sweep and leave it zero.
	tier kernels.Width

	float   func(threads int)
	unopt   func(threads int)
	bitflow func(threads int)
}

// buildRunners materializes inputs, weights and operators for cfg.
func buildRunners(cfg workload.OpConfig, feat sched.Features, seed uint64) (*opRunners, error) {
	r := workload.NewRNG(seed)
	or := &opRunners{cfg: cfg}
	switch cfg.Kind {
	case workload.OpConv:
		shape, err := sched.InferConv(cfg.H, cfg.W, cfg.C, cfg.K, cfg.KH, cfg.KW, cfg.Stride, cfg.Pad)
		if err != nil {
			return nil, err
		}
		or.units = shape.OutH * shape.OutW

		filt := workload.PM1Filter(r, cfg.K, cfg.KH, cfg.KW, cfg.C)
		in := workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C)

		cv, err := core.NewConv(shape, feat.MaxWidth, filt)
		if err != nil {
			return nil, err
		}
		or.tier = cv.Tier
		packed := cv.NewInput()
		bitpack.PackTensorInto(in, packed)
		pOut := bitpack.NewPacked(shape.OutH, shape.OutW, cfg.K, bitpack.WordsFor(cfg.K), 0, 0)
		or.bitflow = func(threads int) { cv.ForwardPacked(packed, nil, pOut, exec.Threads(threads)) }

		bim := baseline.NewBinaryIm2colConv(filt, cfg.Stride, cfg.Pad)
		or.unopt = func(threads int) { bim.Forward(in, threads) }

		or.float = func(threads int) { baseline.ConvDirect(in, filt, cfg.Stride, cfg.Pad, 0, threads) }

	case workload.OpFC:
		shape, err := sched.InferFC(cfg.N, cfg.K)
		if err != nil {
			return nil, err
		}
		or.units = cfg.K

		w := workload.PM1Matrix(r, cfg.N, cfg.K)
		inVals := make([]float32, cfg.N)
		for i := range inVals {
			inVals[i] = r.PM1()
		}

		d, err := core.NewDense(shape, feat.MaxWidth, w)
		if err != nil {
			return nil, err
		}
		or.tier = d.Tier
		packedIn := d.NewInput()
		bitpack.PackVectorInto(packedIn, inVals)
		out := core.DenseOut{Acc: d.NewScratch()}
		or.bitflow = func(threads int) { d.Forward(packedIn, out, exec.Threads(threads)) }

		// Unoptimized binary fc: pack the activation vector at run time
		// (no fused transform pre-staging for activations), then a
		// straight scalar-kernel matvec without register blocking.
		wPacked := bitpack.PackMatrixBT(w, bitpack.WordsFor(cfg.N))
		unoptIn := make([]uint64, bitpack.WordsFor(cfg.N))
		unoptOut := make([]int32, cfg.K)
		or.unopt = func(threads int) {
			bitpack.PackVectorInto(unoptIn, inVals)
			runChunked(cfg.K, threads, func(k0, k1 int) {
				for k := k0; k < k1; k++ {
					acc := kernels.XorPop64(unoptIn, wPacked.RowWords(k))
					unoptOut[k] = int32(cfg.N) - 2*int32(acc)
				}
			})
		}

		floatOut := make([]float32, cfg.K)
		or.float = func(threads int) { baseline.DenseFloat(inVals, w, floatOut, threads) }

	case workload.OpPool:
		shape, err := sched.InferPool(cfg.H, cfg.W, cfg.C, cfg.KH, cfg.KW, cfg.Stride)
		if err != nil {
			return nil, err
		}
		or.units = shape.OutH * shape.OutW

		in := workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C)
		words := bitpack.WordsFor(cfg.C)
		pl, err := core.NewPool(shape, words)
		if err != nil {
			return nil, err
		}
		packed := bitpack.PackTensor(in, words, 0, 0)
		pOut := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, words, 0, 0)
		or.bitflow = func(threads int) { pl.Forward(packed, pOut, exec.Threads(threads)) }

		// Unoptimized ("unvectorized", Fig. 7) binary pool: same packed
		// input, but a plain word-at-a-time OR reduction with no
		// unrolling and no contiguous-segment walking.
		unoptIn := bitpack.PackTensor(in, words, 0, 0)
		unoptOut := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, words, 0, 0)
		wpp := unoptIn.WPP
		or.unopt = func(threads int) {
			runChunked(shape.OutH*shape.OutW, threads, func(start, end int) {
				for idx := start; idx < end; idx++ {
					y := idx / shape.OutW
					x := idx % shape.OutW
					dst := unoptOut.PixelWords(y, x)
					for w := 0; w < wpp; w++ {
						var acc uint64
						for i := 0; i < cfg.KH; i++ {
							for j := 0; j < cfg.KW; j++ {
								acc |= unoptIn.PixelWords(y*cfg.Stride+i, x*cfg.Stride+j)[w]
							}
						}
						dst[w] = acc
					}
				}
			})
		}

		or.float = func(threads int) { baseline.MaxPoolFloat(in, cfg.KH, cfg.KW, cfg.Stride, threads) }

	default:
		return nil, fmt.Errorf("unknown op kind %v", cfg.Kind)
	}
	return or, nil
}

// runChunked is the harness-local thread splitter. It dispatches on the
// same persistent pool as the networks it is compared with.
func runChunked(total, threads int, body func(start, end int)) {
	exec.Threads(threads).ParallelFor(total, body)
}

// scaleFracs returns (serialFrac, memBoundFrac) estimates per operator
// kind for the scaling model: pools are almost pure data movement; convs
// carry a small serial dispatch cost; dense has the packed weight stream.
func scaleFracs(cfg workload.OpConfig) (serial, mem float64) {
	switch cfg.Kind {
	case workload.OpPool:
		return 0.01, 0.35
	case workload.OpFC:
		return 0.005, 0.10
	default:
		if cfg.C >= 512 {
			return 0.005, 0.06
		}
		return 0.005, 0.02
	}
}
