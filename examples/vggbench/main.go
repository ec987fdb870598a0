// VGG perception loop: the paper motivates BitFlow with auto-driving
// perception stacks that run several models concurrently and want BNNs
// off the GPU. This example runs a binarized VGG-16 in a low-latency
// inference loop over a stream of synthetic camera frames, tracking the
// per-frame latency budget.
//
//	go run ./examples/vggbench            # full VGG-16 (≈3 s model build)
//	go run ./examples/vggbench -tiny      # small model, instant
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"bitflow"
	"bitflow/internal/workload"
)

var (
	flagTiny    = flag.Bool("tiny", false, "use the small demo model instead of VGG-16")
	flagFrames  = flag.Int("frames", 5, "frames to process")
	flagBudget  = flag.Duration("budget", 100*time.Millisecond, "per-frame latency budget")
	flagThreads = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
)

func main() {
	flag.Parse()
	feat := bitflow.Detect()
	ws := bitflow.RandomWeights{Seed: 7}

	build := bitflow.VGG16
	if *flagTiny {
		build = bitflow.TinyVGG
	}
	t0 := time.Now()
	net, err := build(feat, ws)
	if err != nil {
		log.Fatal(err)
	}
	net.SetExec(bitflow.Pooled(bitflow.ExecDefault(), *flagThreads))
	ms := net.ModelSize()
	fmt.Printf("loaded %s in %v: %.1f MB packed weights (%.1fx compression), %.1f MB activations pre-allocated\n",
		net.Name, time.Since(t0).Round(time.Millisecond),
		float64(ms.BinarizedBytes)/(1<<20), ms.Compression(),
		float64(net.ActivationBytes())/(1<<20))

	// Synthetic camera frames: deterministic pseudo-random pixel data at
	// the network's input geometry.
	rng := workload.NewRNG(99)
	frames := make([]*bitflow.Tensor, *flagFrames)
	for i := range frames {
		frames[i] = workload.RandTensor(rng, net.InH, net.InW, net.InC)
	}

	net.Infer(frames[0]) // warm-up

	fmt.Printf("\nprocessing %d frames with a %v budget, %d thread(s):\n", len(frames), *flagBudget, net.Exec().Budget())
	var worst time.Duration
	var missed int
	for i, f := range frames {
		t := time.Now()
		logits := net.Infer(f)
		lat := time.Since(t)
		if lat > worst {
			worst = lat
		}
		status := "ok"
		if lat > *flagBudget {
			status = "MISSED"
			missed++
		}
		best := 0
		for j, v := range logits {
			if v > logits[best] {
				best = j
			}
		}
		fmt.Printf("  frame %d: %8.2f ms  class=%-4d %s\n",
			i, float64(lat)/float64(time.Millisecond), best, status)
	}
	fmt.Printf("\nworst-case latency %.2f ms; %d/%d frames missed the budget.\n",
		float64(worst)/float64(time.Millisecond), missed, len(frames))
	fmt.Println("(the paper's 64-core Xeon Phi runs binarized VGG-16 in 11.82 ms — 1.1x faster")
	fmt.Println(" than a GTX 1080 running the float model, freeing the GPU for other tasks)")
}
