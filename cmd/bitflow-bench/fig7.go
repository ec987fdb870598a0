package main

import (
	"fmt"
	"os"

	"bitflow/internal/bench"
	"bitflow/internal/paperdata"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// runFig7 regenerates paper Fig. 7: single-core acceleration of the
// unoptimized binary kernel and of BitFlow over the counterpart float
// operator, for each Table IV benchmark.
func runFig7(feat sched.Features) error {
	fmt.Println("== Fig. 7: single-core vectorization speedup (float operator = 1x) ==")
	t := bench.NewTable("op", "kernel tier", "float", "unopt-binary", "bitflow",
		"unopt accel", "bitflow accel", "vector gain", "paper(unopt)", "paper(bitflow)")
	paper := map[string]paperdata.Fig7Row{}
	for _, row := range paperdata.Fig7 {
		paper[row.Op] = row
	}
	var gainSum, gainN float64
	for _, cfg := range ops() {
		or, err := buildRunners(cfg, feat, *flagSeed)
		if err != nil {
			return err
		}
		tFloat := measure(or.float, 1)
		tUnopt := measure(or.unopt, 1)
		tBitflow := measure(or.bitflow, 1)
		gain := bench.Ratio(tUnopt, tBitflow)
		gainSum += gain
		gainN++
		p, ok := paper[paperName(cfg.Name)]
		paperUnopt, paperOpt := "-", "-"
		if ok {
			paperUnopt = fmt.Sprintf("%.0fx%s", p.Unoptimized, approxMark(p.Approx))
			paperOpt = fmt.Sprintf("%.0fx%s", p.BitFlow, approxMark(p.Approx))
		}
		// Pools OR packed words in plain Go; only conv and fc run a
		// sweep kernel tier.
		kernel := "-"
		if cfg.Kind != workload.OpPool {
			kernel = or.tier.String()
		}
		t.Row(cfg.Name, kernel,
			bench.Ms(tFloat), bench.Ms(tUnopt), bench.Ms(tBitflow),
			bench.Speedup(tFloat, tUnopt), bench.Speedup(tFloat, tBitflow),
			fmt.Sprintf("%.2fx", gain),
			paperUnopt, paperOpt)
	}
	t.Render(os.Stdout)
	fmt.Printf("\n  mean vectorization gain over unoptimized binary: %.2fx (paper: %.2fx / \"83%% speedup\")\n",
		gainSum/gainN, paperdata.Fig7AvgVectorSpeedup)
	fmt.Println("  (≈ marks paper values read from chart bars rather than prose)")
	fmt.Println()
	return nil
}

// paperName maps -quick's scaled names (conv2.1s) onto the paper rows.
func paperName(name string) string {
	if n := len(name); n > 0 && name[n-1] == 's' {
		return name[:n-1]
	}
	return name
}

func approxMark(approx bool) string {
	if approx {
		return "≈"
	}
	return ""
}
