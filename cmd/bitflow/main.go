// Command bitflow runs end-to-end binarized VGG inference on random
// input and prints the logits' argmax plus a per-layer timing breakdown —
// the quickest way to see the engine work at paper scale.
//
//	bitflow -model vgg16 -threads 4 -repeat 3
//	bitflow -model tiny
//
// Usage:
//
//	bitflow [flags]
//
//	-model string    model to run: vgg16, vgg19, tiny (default "vgg16")
//	-load string     load a packed model file instead of building -model
//	-save string     write the packed model to this file and exit
//	-threads int     worker threads (default: physical cores)
//	-repeat int      timed inference passes (default 3)
//	-seed uint       weight/input seed (default 1)
//	-layers          print per-layer timing (default true)
//	-trace string    write a Chrome trace of the timed passes to this file
package main

import (
	"flag"
	"fmt"
	"os"

	"bitflow/internal/bench"
	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/trace"
	"bitflow/internal/workload"
)

var (
	flagModel   = flag.String("model", "vgg16", "model to run: vgg16, vgg19, tiny")
	flagThreads = flag.Int("threads", bench.PhysicalCores(), "worker threads (multi-core parallelism)")
	flagRepeat  = flag.Int("repeat", 3, "timed inference passes")
	flagSeed    = flag.Uint64("seed", 1, "weight/input seed")
	flagLayers  = flag.Bool("layers", true, "print per-layer timing")
	flagSave    = flag.String("save", "", "write the packed model to this file and exit")
	flagLoad    = flag.String("load", "", "load a packed model file instead of building -model")
	flagTrace   = flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the timed passes to this file")
)

func main() {
	flag.Parse()
	feat := sched.Detect()
	ws := graph.RandomWeights{Seed: *flagSeed}

	var (
		net *graph.Network
		err error
	)
	if *flagLoad != "" {
		f, ferr := os.Open(*flagLoad)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "bitflow: %v\n", ferr)
			os.Exit(1)
		}
		net, err = graph.Load(f, feat)
		f.Close()
	} else {
		switch *flagModel {
		case "vgg16":
			net, err = graph.VGG16(feat, ws)
		case "vgg19":
			net, err = graph.VGG19(feat, ws)
		case "tiny":
			net, err = graph.TinyVGG(feat, ws)
		default:
			fmt.Fprintf(os.Stderr, "bitflow: unknown model %q (want vgg16, vgg19 or tiny)\n", *flagModel)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow: %v\n", err)
		os.Exit(1)
	}
	net.SetExec(exec.Threads(*flagThreads))

	if *flagSave != "" {
		f, ferr := os.Create(*flagSave)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "bitflow: %v\n", ferr)
			os.Exit(1)
		}
		nBytes, serr := net.Save(f)
		if cerr := f.Close(); serr == nil {
			serr = cerr
		}
		if serr != nil {
			fmt.Fprintf(os.Stderr, "bitflow: saving model: %v\n", serr)
			os.Exit(1)
		}
		fmt.Printf("saved %s: %.1f MB packed model -> %s\n", net.Name, float64(nBytes)/(1<<20), *flagSave)
		return
	}

	ms := net.ModelSize()
	fmt.Printf("%s: %d layers, %d weights, %.1f MB binarized (%.1fx compression), %.1f MB pre-allocated activations\n",
		net.Name, len(net.Layers()), ms.Weights,
		float64(ms.BinarizedBytes)/(1<<20), ms.Compression(),
		float64(net.ActivationBytes())/(1<<20))
	fmt.Printf("scheduler: %s; threads: %d\n\n", feat, net.Exec().Budget())

	x := workload.RandTensor(workload.NewRNG(*flagSeed+1), net.InH, net.InW, net.InC)
	net.Infer(x) // warm-up
	var logits []float32
	var timings []graph.LayerTiming
	tw := trace.NewWriter(net.Name)
	for i := 0; i < max(*flagRepeat, 1); i++ {
		logits, timings = net.InferTimed(x)
		tw.AddPass(timings)
		var total float64
		for _, lt := range timings {
			total += float64(lt.Duration.Microseconds()) / 1000
		}
		fmt.Printf("pass %d: %.2f ms\n", i+1, total)
	}
	if *flagTrace != "" {
		tf, terr := os.Create(*flagTrace)
		if terr == nil {
			terr = tw.Flush(tf)
			if cerr := tf.Close(); terr == nil {
				terr = cerr
			}
		}
		if terr != nil {
			fmt.Fprintf(os.Stderr, "bitflow: writing trace: %v\n", terr)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace (%d passes) to %s\n", tw.Passes(), *flagTrace)
	}

	if *flagLayers {
		fmt.Println("\nper-layer breakdown (last pass):")
		t := bench.NewTable("layer", "kind", "time")
		for _, lt := range timings {
			t.Row(lt.Name, lt.Kind, bench.Ms(lt.Duration))
		}
		t.Render(os.Stdout)
	}

	best, bestV := 0, logits[0]
	for i, v := range logits {
		if v > bestV {
			best, bestV = i, v
		}
	}
	fmt.Printf("\nargmax class: %d (logit %.0f of %d classes)\n", best, bestV, net.Classes)
}
