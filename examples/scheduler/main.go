// Scheduler tour: show what the vector execution scheduler (paper §III-B,
// Fig. 4/6) decides for each channel count on this machine, and what
// changes when the hardware is narrower. Every conv and dense layer runs
// at the detected tier whatever its channel count: the sweeps mask their
// own tails, so the paper's rule that a channel count no wide width
// divides falls back to the scalar kernel does not apply.
//
//	go run ./examples/scheduler
package main

import (
	"fmt"

	"bitflow"
)

func main() {
	feat := bitflow.Detect()
	fmt.Println("detected:", feat)
	fmt.Println()

	channels := []int{3, 24, 64, 96, 100, 128, 192, 256, 384, 512, 768, 1024, 4096, 25088}

	// Emulate narrower machines, as the paper contrasts Xeon Phi
	// (AVX-512) with Core i7 (AVX2): each cap resolves to the widest
	// tier this CPU executes within it.
	caps := []bitflow.Width{bitflow.W512, bitflow.W256, bitflow.W64}
	fmt.Println("packed words per channel vector, and the kernel tier each width cap runs on this CPU:")
	fmt.Printf("  %-9s %-6s", "channels", "words")
	for _, cap := range caps {
		fmt.Printf(" cap %-9v", cap)
	}
	fmt.Println()
	for _, c := range channels {
		// One bit per channel, packed into 64-bit words.
		fmt.Printf("  %-9d %-6d", c, (c+63)/64)
		for _, cap := range caps {
			fmt.Printf("     %-9v", feat.WithMaxWidth(cap).MaxWidth.Tier())
		}
		fmt.Println()
	}
}
