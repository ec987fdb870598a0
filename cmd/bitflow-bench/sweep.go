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
// executes runs the widest tier it has).
func runSweep(_ sched.Features) error {
	fmt.Println("== extension: kernel-tier sweep across channel counts (28x28 conv, K=64, 3x3) ==")
	channels := []int{32, 64, 96, 128, 192, 256, 384, 512, 768, 1024}
	if *flagQuick {
		channels = []int{64, 128, 256, 512}
	}
	caps := []kernels.Width{kernels.W64, kernels.W256, kernels.W512}
	t := bench.NewTable("C", "words/window", "scalar64", "avx256", "avx512", "512 vs 64")
	for _, c := range channels {
		times := map[kernels.Width]time.Duration{}
		for _, w := range caps {
			d, err := measureConv(c, w)
			if err != nil {
				return err
			}
			times[w] = d
		}
		t.Row(c, 9*bitpack.WordsFor(c),
			bench.Ms(times[kernels.W64]), bench.Ms(times[kernels.W256]), bench.Ms(times[kernels.W512]),
			fmt.Sprintf("%.2fx", bench.Ratio(times[kernels.W64], times[kernels.W512])))
	}
	t.Render(os.Stdout)
	fmt.Printf("\n  tiers executed under each cap on this CPU: %v / %v / %v\n",
		kernels.W64.Tier(), kernels.W256.Tier(), kernels.W512.Tier())
	fmt.Println()
	return nil
}

// measureConv times one ForwardPacked pass of a 28×28×C K=64 conv at
// the given kernel tier.
func measureConv(c int, tier kernels.Width) (time.Duration, error) {
	r := workload.NewRNG(*flagSeed ^ uint64(c))
	shape, err := sched.InferConv(28, 28, c, 64, 3, 3, 1, 1)
	if err != nil {
		return 0, err
	}
	cv, err := core.NewConv(shape, tier, workload.PM1Filter(r, 64, 3, 3, c))
	if err != nil {
		return 0, err
	}
	in := cv.NewInput()
	bitpack.PackTensorInto(workload.PM1Tensor(r, 28, 28, c), in)
	out := bitpack.NewPacked(shape.OutH, shape.OutW, 64, 1, 0, 0)
	return measure(func(threads int) { cv.ForwardPacked(in, nil, out, exec.Threads(threads)) }, 1), nil
}
