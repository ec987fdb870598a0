// Command bitflow-info prints the vector execution scheduler's view of
// this machine: the detected features, the kernel tier table (the paper's
// Table I analogue; every conv and dense runs at the detected tier,
// whatever its channel count) and the arithmetic intensity of the Table
// IV convolutions. With -model it instead loads a .bflw artifact and
// prints its per-layer report: words swept per window and filter, and
// kernel compression.
//
// Usage:
//
//	bitflow-info [flags]
//
//	-model string   path to a .bflw artifact: print its per-layer sweep and
//	                kernel-compression report and exit
package main

import (
	"flag"
	"fmt"
	"os"

	"bitflow/internal/ait"
	"bitflow/internal/bench"
	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

var flagModel = flag.String("model", "", "path to a .bflw artifact: print its per-layer sweep and kernel-compression report and exit")

func main() {
	flag.Parse()
	feat := sched.Detect()
	if *flagModel != "" {
		if err := modelReport(*flagModel, feat); err != nil {
			fmt.Fprintf(os.Stderr, "bitflow-info: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println("BitFlow vector execution scheduler report")
	fmt.Println()
	fmt.Printf("  hardware detector: %s\n", feat)
	fmt.Printf("  usable cores:      %d\n", bench.PhysicalCores())
	fmt.Printf("  width cap env:     %s (set to 64/256/512 to cap the kernel tier below what the CPU executes; other values are ignored)\n", sched.MaxWidthEnv)
	fmt.Println()

	rep := exec.Default().Report()
	fmt.Println("execution pool (internal/exec — shared multi-core dispatch):")
	fmt.Printf("  persistent workers: %d (budget source: %s)\n", rep.Workers, rep.Source)
	fmt.Printf("  GOMAXPROCS:         %d (pinned at pool creation)\n", rep.GOMAXPROCS)
	fmt.Printf("  NumCPU:             %d\n", rep.NumCPU)
	fmt.Printf("  dispatches so far:  %d (busy now: %d)\n", rep.Dispatches, rep.Busy)
	fmt.Println()

	fmt.Println("kernel tiers (Table I — \"runs as\" is the kernel this CPU and build execute for the width):")
	kt := bench.NewTable("width", "bits", "words/step", "kernel", "runs as")
	for _, t := range []struct {
		w    kernels.Width
		impl string
	}{
		{kernels.W64, "pure Go: uint64 XOR + POPCNT"},
		{kernels.W256, "AVX2 assembly: VPXOR + VPSHUFB nibble table + VPSADBW"},
		{kernels.W512, "AVX-512 assembly: VPXORQ + VPOPCNTQ, masked tails"},
	} {
		kt.Row(t.w, t.w.Bits(), t.w.Words(), t.impl, t.w.Tier())
	}
	kt.Render(os.Stdout)
	fmt.Println()

	fmt.Println("arithmetic intensity of the Table IV convolutions (§III-A):")
	at := bench.NewTable("op", "intrinsic AIT", "im2col AIT (float)", "im2col AIT (binary/64)")
	for _, cfg := range workload.PaperOps() {
		if cfg.Kind != workload.OpConv {
			continue
		}
		c := ait.Conv{H: cfg.H, W: cfg.W, C: cfg.C, K: cfg.K, KH: cfg.KH, KW: cfg.KW}
		b := ait.Binary{Conv: c, Factor: 64}
		at.Row(cfg.Name,
			fmt.Sprintf("%.1f", c.IntrinsicAIT()),
			fmt.Sprintf("%.1f", c.Im2colAIT()),
			fmt.Sprintf("%.2f", b.Im2colAIT()))
	}
	at.Render(os.Stdout)
}

// modelReport loads an artifact and prints the load-time planning view
// the serving stack acts on: each layer's filters, the words one window
// sweeps per filter (1 where the conv is window-packed), its distinct
// filters (kernel compression per Silfa & Arnau) and which layers'
// forwards fold onto their distinct filters.
func modelReport(path string, feat sched.Features) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	net, err := graph.Load(f, feat)
	if err != nil {
		return fmt.Errorf("loading %s: %w", path, err)
	}
	fmt.Printf("model %q (%dx%dx%d → %d classes, %d layers, %d fused pair(s))\n",
		net.Name, net.InH, net.InW, net.InC, net.Classes, len(net.Layers()), net.Fusion().Pairs)
	fmt.Println()
	fmt.Println("words/window: a conv whose receptive field fits one word (KH·KW·C ≤ 64) sweeps 1, otherwise KH·KW·WPP")
	fmt.Printf("kernel compression (conv banks fold at filters / distinct filters ≥ %.1f unless window-packed; dense layers always sweep):\n", kernels.CompressMinRatio)
	ct := bench.NewTable("layer", "kind", "filters", "words/filter", "words/window", "distinct filters", "ratio", "folded")
	ww := net.WindowWords()
	for i, lc := range net.Compression() {
		ct.Row(lc.Layer, lc.Kind, lc.Channels, lc.Positions, ww[i],
			lc.DistinctWords/lc.Positions,
			fmt.Sprintf("%.2f", lc.Ratio),
			map[bool]string{true: "yes", false: "no"}[lc.Selected])
	}
	ct.Render(os.Stdout)
	fmt.Println()
	fmt.Printf("compressed layers: %d — a folded bank sweeps only its distinct filters and copies their counts out\n",
		net.CompressedLayers())
	return nil
}
