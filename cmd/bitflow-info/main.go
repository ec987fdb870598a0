// Command bitflow-info prints the vector execution scheduler's view of
// this machine: the detected features, the kernel tier table (the paper's
// Table I analogue), and the operator→kernel mapping for the VGG channel
// ladder (the paper's Fig. 6). With -model it instead loads a .bflw
// artifact and prints its per-layer kernel-compression report.
//
// Usage:
//
//	bitflow-info [flags]
//
//	-model string   path to a .bflw artifact: print its kernel-compression
//	                report and exit
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

var flagModel = flag.String("model", "", "path to a .bflw artifact: print its kernel-compression report and exit")

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
	fmt.Printf("  width cap env:     %s (set to 64/128/256/512 to cap the kernel tier below what the CPU executes)\n", sched.MaxWidthEnv)
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
	impl := map[kernels.Width]string{
		kernels.W64:  "pure Go: uint64 XOR + POPCNT",
		kernels.W128: "packing width only (scalar kernel)",
		kernels.W256: "AVX2 assembly: VPXOR + VPSHUFB nibble table + VPSADBW",
		kernels.W512: "AVX-512 assembly: VPXORQ + VPOPCNTQ, masked tails",
	}
	for i := len(kernels.Widths) - 1; i >= 0; i-- {
		w := kernels.Widths[i]
		kt.Row(w, w.Bits(), w.Words(), impl[w], w.Tier())
	}
	kt.Render(os.Stdout)
	fmt.Println()

	fmt.Println("operator → packing width (§III-B rules, Fig. 6) and the kernel tier its sweeps run at:")
	mt := bench.NewTable("operator", "channels", "packing", "packed words", "pad lanes", "kernel tier")
	rows := []struct {
		op string
		c  int
	}{
		{"conv1.1", 3}, {"conv2.1", 64}, {"conv3.1", 128}, {"conv4.1", 256}, {"conv5.1", 512},
		{"fc6 (N)", 7 * 7 * 512}, {"fc7 (N)", 4096},
	}
	for _, r := range rows {
		p := sched.Select(r.c, feat)
		mt.Row(r.op, r.c, p.Width, p.Words, p.PadLanes(), p.Tier)
	}
	mt.Render(os.Stdout)
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
// the serving stack acts on: each layer's filters and distinct filters
// (kernel compression per Silfa & Arnau) and which layers' forwards
// fold onto their distinct filters.
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
	fmt.Printf("kernel compression (conv banks fold at filters / distinct filters ≥ %.1f; dense layers always sweep):\n", kernels.CompressMinRatio)
	ct := bench.NewTable("layer", "kind", "filters", "words/filter", "distinct filters", "ratio", "folded")
	for _, lc := range net.Compression() {
		ct.Row(lc.Layer, lc.Kind, lc.Channels, lc.Positions,
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
