// Command bitflow-bench regenerates every table and figure of the
// paper's evaluation section (see DESIGN.md §4 for the index):
//
//	bitflow-bench fig7    # single-core vectorization speedups
//	bitflow-bench fig8    # multi-core scaling, 1/4 threads (i7 setup)
//	bitflow-bench fig9    # multi-core scaling, 1/4/16/64 threads (Phi setup)
//	bitflow-bench fig10   # per-operator wall clock vs simulated GTX 1080
//	bitflow-bench fig11   # VGG-16/19 end-to-end vs simulated GTX 1080
//	bitflow-bench table5  # accuracy (synthetic tasks) + model size
//	bitflow-bench ait     # arithmetic-intensity analysis (§III-A)
//	bitflow-bench sweep   # extension: kernel-tier sweep over channel counts
//	bitflow-bench all     # everything above
//
// End-to-end throughput, latency and the fusion/compression gains are
// measured by `go run ./benchmark` (see benchmark/README.md).
//
// Usage:
//
//	bitflow-bench [flags] {fig7|fig8|fig9|fig10|fig11|table5|ait|sweep|all}
//
//	-quick       use scaled-down operator shapes (fast smoke run)
//	-runs int    median-of-N timing (default 5)
//	-seed uint   workload seed (default 2018)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

var (
	flagQuick = flag.Bool("quick", false, "use scaled-down shapes for a fast smoke run")
	flagRuns  = flag.Int("runs", 5, "timing samples per measurement (median reported)")
	flagSeed  = flag.Uint64("seed", 2018, "workload seed")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bitflow-bench [flags] {fig7|fig8|fig9|fig10|fig11|table5|ait|sweep|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	feat := sched.Detect()
	fmt.Printf("bitflow-bench: %s, %d usable cores, quick=%v\n\n", feat, bench.PhysicalCores(), *flagQuick)

	run := func(name string, f func(sched.Features) error) {
		if err := f(feat); err != nil {
			fmt.Fprintf(os.Stderr, "bitflow-bench %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	switch flag.Arg(0) {
	case "fig7":
		run("fig7", runFig7)
	case "fig8":
		run("fig8", runFig8)
	case "fig9":
		run("fig9", runFig9)
	case "fig10":
		run("fig10", runFig10)
	case "fig11":
		run("fig11", runFig11)
	case "table5":
		run("table5", runTable5)
	case "ait":
		run("ait", runAIT)
	case "sweep":
		run("sweep", runSweep)
	case "all":
		for _, sub := range []struct {
			name string
			f    func(sched.Features) error
		}{
			{"ait", runAIT}, {"fig7", runFig7}, {"fig8", runFig8}, {"fig9", runFig9},
			{"fig10", runFig10}, {"fig11", runFig11}, {"table5", runTable5},
			{"sweep", runSweep},
		} {
			run(sub.name, sub.f)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// ops returns the benchmark operator set honoring -quick.
func ops() []workload.OpConfig {
	if *flagQuick {
		return workload.SmallOps()
	}
	return workload.PaperOps()
}

// measure returns the median duration of f(threads) over -runs samples.
// A forced collection first keeps garbage from previously measured
// operators (im2col unfolds, float weight matrices) from inflating the
// samples of small ones.
func measure(f func(int), threads int) time.Duration {
	runtime.GC()
	return bench.Measure(*flagRuns, 50*time.Millisecond, func() { f(threads) })
}
