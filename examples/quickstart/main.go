// Quickstart: build a small binary neural network with the public API,
// run one inference, and inspect what the engine set up.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bitflow"
)

func main() {
	// 1. Probe the platform. Every conv and dense layer runs at the
	// widest kernel tier this machine has, whatever its channel count
	// (paper §III-B picks a width per channel count; the sweeps here
	// mask their own tails, so they need none).
	feat := bitflow.Detect()
	fmt.Println("platform:", feat)

	// 2. Describe the network. Convolutions and hidden dense layers fuse
	// the sign activation; the final dense layer emits float logits.
	net, err := bitflow.NewBuilder("quickstart", 32, 32, 64, feat).
		Conv3x3("conv1", 128). // 64 input channels → one 64-bit word per pixel
		Conv3x3("conv2", 128). // 128 channels → two words per pixel
		Pool("pool1", 2, 2, 2).
		Flatten().
		Dense("hidden", 256).
		Dense("classes", 10).
		Build(bitflow.RandomWeights{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// 3. What did the build do? Weights were binarized and bit-packed
	// once; every activation buffer is pre-allocated.
	ms := net.ModelSize()
	fmt.Printf("model: %d weights, %.0f KB binarized (%.1fx smaller than float32)\n",
		ms.Weights, float64(ms.BinarizedBytes)/1024, ms.Compression())
	for _, l := range net.Layers() {
		fmt.Printf("  layer %-8s %-5s -> %s\n", l.Name, l.Kind, l.OutDims)
	}

	// 4. Run an inference on a synthetic image.
	x := bitflow.NewTensor(32, 32, 64)
	for i := range x.Data {
		x.Data[i] = float32((i%7)-3) / 3 // arbitrary deterministic pattern
	}
	logits := net.Infer(x)

	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	fmt.Printf("logits: %v\n", logits)
	fmt.Printf("predicted class: %d\n", best)
}
