package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/exec"
	"bitflow/internal/gpusim"
	"bitflow/internal/graph"
	"bitflow/internal/paperdata"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// phiThreads is the paper's Xeon Phi 7210 configuration, the machine on
// which BitFlow beats the GTX 1080.
const phiThreads = 64

// runFig10 regenerates paper Fig. 10: per-operator wall-clock time of
// BitFlow against the float operator on a GTX 1080 (simulated — see
// internal/gpusim). On hosts with fewer cores than the paper's machines
// a modeled 64-thread time (measured single-thread time ÷ the documented
// scaling model) is printed alongside.
func runFig10(feat sched.Features) error {
	fmt.Println("== Fig. 10: per-operator wall clock, BitFlow (CPU) vs GTX 1080 float (simulated) ==")
	dev := gpusim.GTX1080()
	threads := bench.PhysicalCores()
	t := bench.NewTable("op", "bitflow(measured)", "bitflow(model 64t)", "gtx1080(sim)", "model64t/gpu")
	for _, cfg := range ops() {
		or, err := buildRunners(cfg, feat, *flagSeed)
		if err != nil {
			return err
		}
		t1 := measure(or.bitflow, 1)
		tb := t1
		if threads > 1 {
			tb = measure(or.bitflow, threads)
		}
		serial, mem := scaleFracs(cfg)
		model := bench.ScalingModel{Units: or.units, SerialFrac: serial, MemBoundFrac: mem}
		t64 := time.Duration(float64(t1) / model.Speedup(phiThreads))
		tg := dev.OpTime(cfg)
		t.Row(cfg.Name, bench.Ms(tb), bench.Ms(t64), bench.Ms(tg),
			fmt.Sprintf("%.2f", float64(t64)/float64(tg)))
	}
	t.Render(os.Stdout)
	fmt.Printf("\n  measured with %d thread(s); 'model 64t' applies the scaling model of\n", threads)
	fmt.Println("  internal/bench/scaling.go, standing in for the paper's 64-core Xeon Phi.")
	fmt.Println()
	return nil
}

// runFig11 regenerates paper Fig. 11: end-to-end VGG-16/19 inference
// time, BitFlow vs the simulated GTX 1080, with the paper's numbers for
// all three of its platforms alongside, plus the modeled 64-thread time.
func runFig11(feat sched.Features) error {
	fmt.Println("== Fig. 11: VGG end-to-end inference time ==")
	dev := gpusim.GTX1080()
	threads := bench.PhysicalCores()
	ws := graph.RandomWeights{Seed: *flagSeed}

	type netCase struct {
		name  string
		build func() (*graph.Network, error)
		gpu   time.Duration
		paper paperdata.Fig11Row
	}
	cases := []netCase{}
	if *flagQuick {
		cases = append(cases, netCase{
			name:  "TinyVGG (quick mode)",
			build: func() (*graph.Network, error) { return graph.TinyVGG(feat, ws) },
		})
	} else {
		cases = append(cases,
			netCase{"VGG16", func() (*graph.Network, error) { return graph.VGG16(feat, ws) }, dev.VGG16Time(), paperdata.Fig11[0]},
			netCase{"VGG19", func() (*graph.Network, error) { return graph.VGG19(feat, ws) }, dev.VGG19Time(), paperdata.Fig11[1]},
		)
	}

	t := bench.NewTable("network", "bitflow (this host)", "model 64t", "gtx1080(sim)",
		"paper gpu", "paper i7", "paper phi")
	perLayer := map[string][]graph.LayerTiming{}
	order := []string{}
	for _, c := range cases {
		net, err := c.build()
		if err != nil {
			return err
		}
		net.SetExec(exec.Threads(threads))
		x := workload.RandTensor(workload.NewRNG(*flagSeed), net.InH, net.InW, net.InC)
		// Drop the build's transient float weights before timing —
		// their collection otherwise pollutes the first samples.
		runtime.GC()
		net.Infer(x) // warm-up
		var timings []graph.LayerTiming
		dur := bench.Measure(*flagRuns, 0, func() {
			_, timings = net.InferTimed(x)
		})
		perLayer[c.name] = timings
		order = append(order, c.name)

		modeled := modelNetworkTime(timings, phiThreads)
		paperGPU, paperI7, paperPhi := "-", "-", "-"
		if c.paper.Network != "" {
			paperGPU = fmt.Sprintf("%.2fms", c.paper.GTX1080)
			paperI7 = fmt.Sprintf("%.2fms", c.paper.I7)
			paperPhi = fmt.Sprintf("%.2fms", c.paper.XeonPhi)
		}
		gpu := "-"
		if c.gpu > 0 {
			gpu = bench.Ms(c.gpu)
		}
		t.Row(c.name, bench.Ms(dur), bench.Ms(modeled), gpu, paperGPU, paperI7, paperPhi)
	}
	t.Render(os.Stdout)
	fmt.Printf("\n  paper headline: BitFlow on 64-core Phi beats the GTX 1080 by %.1f%% (VGG16) / %.1f%% (VGG19).\n",
		100*(paperdata.Fig11PhiSpeedupVGG16-1), 100*(paperdata.Fig11PhiSpeedupVGG19-1))
	fmt.Printf("  this host runs %d thread(s); 'model 64t' divides each layer's measured time by\n", threads)
	fmt.Println("  the documented scaling model at 64 threads (Phi stand-in).")
	fmt.Println()

	for _, name := range order {
		fmt.Printf("  per-layer breakdown: %s\n", name)
		lt := bench.NewTable("layer", "kind", "time", "units")
		for _, l := range perLayer[name] {
			lt.Row(l.Name, l.Kind, bench.Ms(l.Duration), l.Units)
		}
		lt.Render(os.Stdout)
		fmt.Println()
	}
	return nil
}

// modelNetworkTime predicts the end-to-end time at p threads by scaling
// each layer's measured single-thread time with the load-balance model
// (serial stages — input packing — are left unscaled).
func modelNetworkTime(timings []graph.LayerTiming, p int) time.Duration {
	var total time.Duration
	for _, l := range timings {
		if l.Units <= 1 {
			total += l.Duration
			continue
		}
		var serial, mem float64
		switch l.Kind {
		case "pool":
			serial, mem = 0.01, 0.35
		case "fc":
			serial, mem = 0.005, 0.10
		default:
			// conv and fused conv+pool nodes: XOR+popcount dominated, the
			// fused pool epilogue adds no extra memory-bound phase.
			serial, mem = 0.005, 0.04
		}
		m := bench.ScalingModel{Units: l.Units, SerialFrac: serial, MemBoundFrac: mem}
		total += time.Duration(float64(l.Duration) / m.Speedup(p))
	}
	return total
}
