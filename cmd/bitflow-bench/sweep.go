package main

import (
	"fmt"
	"os"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// runSweep is an extension experiment beyond the paper's figures: a
// channel-count sweep of one convolution geometry with the kernel tier
// capped at each width in turn (the paper's Fig. 7 mechanism — wider
// vectors, larger speed-up — on one machine; a cap above what the CPU
// executes runs the widest tier it has), plus what the SelectPadded
// alternative (pad packed vectors up to the widest width instead of to
// the word boundary) costs.
func runSweep(feat sched.Features) error {
	fmt.Println("== extension: kernel-tier sweep across channel counts (28x28 conv, K=64, 3x3) ==")
	channels := []int{32, 64, 96, 128, 192, 256, 384, 512, 768, 1024}
	if *flagQuick {
		channels = []int{64, 128, 256, 512}
	}
	caps := []kernels.Width{kernels.W64, kernels.W256, kernels.W512}
	t := bench.NewTable("C", "packing", "words/window", "scalar64", "avx256", "avx512", "512 vs 64", "padded pick")
	for _, c := range channels {
		times := map[kernels.Width]time.Duration{}
		for _, w := range caps {
			d, err := measureConvPlan(c, sched.Select(c, feat.WithMaxWidth(w)))
			if err != nil {
				return err
			}
			times[w] = d
		}
		rulePlan := sched.Select(c, feat)
		padTime, err := measureConvPlan(c, sched.SelectPadded(c, feat))
		if err != nil {
			return err
		}
		t.Row(c, rulePlan.Width, 9*rulePlan.Words,
			bench.Ms(times[kernels.W64]), bench.Ms(times[kernels.W256]), bench.Ms(times[kernels.W512]),
			fmt.Sprintf("%.2fx", bench.Ratio(times[kernels.W64], times[kernels.W512])), bench.Ms(padTime))
	}
	t.Render(os.Stdout)
	fmt.Printf("\n  tiers executed under each cap on this CPU: %v / %v / %v; 'padded pick' pads each\n",
		kernels.W64.Tier(), kernels.W256.Tier(), kernels.W512.Tier())
	fmt.Println("  pixel up to the widest width (sched.SelectPadded) instead of to the word boundary.")
	fmt.Println()
	return nil
}

// measureConvPlan times one ForwardPacked pass of a 28×28×C K=64 conv
// under the given plan.
func measureConvPlan(c int, plan sched.Plan) (time.Duration, error) {
	r := workload.NewRNG(*flagSeed ^ uint64(c))
	shape, err := sched.InferConv(28, 28, c, 64, 3, 3, 1, 1)
	if err != nil {
		return 0, err
	}
	cv, err := core.NewConv(shape, plan, workload.PM1Filter(r, 64, 3, 3, c))
	if err != nil {
		return 0, err
	}
	in := cv.NewInput()
	bitpack.PackTensorInto(workload.PM1Tensor(r, 28, 28, c), in)
	out := bitpack.NewPacked(shape.OutH, shape.OutW, 64, 1, 0, 0)
	return measure(func(threads int) { cv.ForwardPacked(in, nil, out, exec.Threads(threads)) }, 1), nil
}
