// Command bitflow-train trains a fully binarized classifier from scratch
// (sign weights/activations, straight-through estimator) on a synthetic
// dataset and exports it as a packed BitFlow model — the complete
// train → deploy path:
//
//	bitflow-train -out model.bflw
//	bitflow -load model.bflw -threads 2
//
// The exported model's logits are bit-exact with the trainer's: the
// engine folds the trained biases into integer sign thresholds.
//
// Usage:
//
//	bitflow-train [flags]
//
//	-task string     dataset: clusters, rings, hard (MLP) or stripes
//	                 (ConvNet) (default "clusters")
//	-out string      output model file (default "model.bflw")
//	-dim int         input dimensionality (default 16)
//	-classes int     class count (default 4)
//	-hidden string   comma-separated hidden layer sizes (default "48,48")
//	-epochs int      training epochs (default 40)
//	-samples int     dataset size (default 2400)
//	-seed uint       data/init seed (default 1)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bitflow/internal/nn"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

var (
	flagOut     = flag.String("out", "model.bflw", "output model file")
	flagTask    = flag.String("task", "clusters", "dataset: clusters, rings, hard (MLP) or stripes (ConvNet)")
	flagDim     = flag.Int("dim", 16, "input dimensionality")
	flagClasses = flag.Int("classes", 4, "class count")
	flagHidden  = flag.String("hidden", "48,48", "comma-separated hidden layer sizes")
	flagEpochs  = flag.Int("epochs", 40, "training epochs")
	flagSamples = flag.Int("samples", 2400, "dataset size")
	flagSeed    = flag.Uint64("seed", 1, "data/init seed")
)

func main() {
	flag.Parse()

	hidden, err := parseHidden(*flagHidden)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow-train: %v\n", err)
		os.Exit(2)
	}

	if *flagTask == "stripes" {
		trainConvNet(hidden)
		return
	}

	r := workload.NewRNG(*flagSeed)
	var data nn.Dataset
	switch *flagTask {
	case "clusters":
		data = nn.Clusters(r, *flagSamples, *flagDim, *flagClasses, 1.0)
	case "rings":
		data = nn.Rings(r, *flagSamples, *flagDim, *flagClasses)
	case "hard":
		data = nn.HardClusters(r, *flagSamples, *flagDim, *flagClasses)
	default:
		fmt.Fprintf(os.Stderr, "bitflow-train: unknown task %q\n", *flagTask)
		os.Exit(2)
	}
	train, test := data.Split(0.8)

	sizes := append(append([]int{data.Dim}, hidden...), data.Classes)
	m := nn.NewMLP(workload.NewRNG(*flagSeed+1), sizes, true)
	m.BinarizeInput = true

	cfg := nn.TrainConfig{Epochs: *flagEpochs, BatchSize: 16, LR: 0.05, Seed: *flagSeed + 2}
	fmt.Printf("training binarized MLP %v on %q (%d train / %d test samples, %d epochs)...\n",
		sizes, *flagTask, train.Len(), test.Len(), cfg.Epochs)
	loss := m.Train(train, cfg)
	fmt.Printf("final epoch loss %.4f, train accuracy %.1f%%, test accuracy %.1f%%\n",
		loss, 100*m.Accuracy(train), 100*m.Accuracy(test))

	net, err := nn.Export(m, fmt.Sprintf("trained-%s", *flagTask), sched.Detect())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow-train: export: %v\n", err)
		os.Exit(1)
	}

	// Engine-side verification before shipping the artifact: the packed
	// network must agree with the trainer on every test sample.
	agree := 0
	for i, x := range test.X {
		logits := net.Infer(tensor.FromSlice(1, 1, len(x), x))
		best := 0
		for c, v := range logits {
			if v > logits[best] {
				best = c
			}
		}
		if best == m.Predict(test.X[i]) {
			agree++
		}
	}
	fmt.Printf("engine/trainer prediction agreement on test set: %d/%d\n", agree, test.Len())
	if agree != test.Len() {
		fmt.Fprintln(os.Stderr, "bitflow-train: exported engine disagrees with trainer; refusing to save")
		os.Exit(1)
	}

	f, err := os.Create(*flagOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow-train: %v\n", err)
		os.Exit(1)
	}
	nBytes, err := net.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow-train: saving: %v\n", err)
		os.Exit(1)
	}
	ms := net.ModelSize()
	fmt.Printf("saved %s (%d bytes, %.1fx smaller than float32 weights)\n", *flagOut, nBytes, ms.Compression())
	fmt.Printf("run it: go run ./cmd/bitflow -load %s\n", *flagOut)
}

// trainConvNet is the convolutional path: a binarized CNN on the stripes
// orientation task, exported through ExportConvNet.
func trainConvNet(hidden []int) {
	r := workload.NewRNG(*flagSeed)
	const size = 12
	data := nn.Stripes(r, *flagSamples, size, min(*flagClasses, 4))
	train, test := data.Split(0.8)

	if len(hidden) == 0 {
		hidden = []int{64}
	}
	m := nn.NewConvNet(workload.NewRNG(*flagSeed+1), size, size, 1,
		[]nn.ConvSpec{{Filters: 64, Pool: true}}, hidden, data.Classes, true)
	m.BinarizeInput = true

	// Binarized conv training wants a gentler step than the MLP path.
	cfg := nn.TrainConfig{Epochs: *flagEpochs, BatchSize: 16, LR: 0.01, Seed: *flagSeed + 2}
	fmt.Printf("training binarized ConvNet (conv64+pool, dense %v) on stripes (%d train / %d test, %d epochs)...\n",
		hidden, train.Len(), test.Len(), cfg.Epochs)
	loss := m.Train(train, cfg)
	fmt.Printf("final epoch loss %.4f, train accuracy %.1f%%, test accuracy %.1f%%\n",
		loss, 100*m.Accuracy(train), 100*m.Accuracy(test))

	net, err := nn.ExportConvNet(m, "trained-stripes", sched.Detect())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow-train: export: %v\n", err)
		os.Exit(1)
	}
	agree := 0
	for i, x := range test.X {
		logits := net.Infer(x)
		best := 0
		for c, v := range logits {
			if v > logits[best] {
				best = c
			}
		}
		if best == m.Predict(test.X[i]) {
			agree++
		}
	}
	fmt.Printf("engine/trainer prediction agreement on test set: %d/%d\n", agree, test.Len())
	if agree != test.Len() {
		fmt.Fprintln(os.Stderr, "bitflow-train: exported engine disagrees with trainer; refusing to save")
		os.Exit(1)
	}
	f, err := os.Create(*flagOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow-train: %v\n", err)
		os.Exit(1)
	}
	nBytes, err := net.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitflow-train: saving: %v\n", err)
		os.Exit(1)
	}
	ms := net.ModelSize()
	fmt.Printf("saved %s (%d bytes, %.1fx smaller than float32 weights)\n", *flagOut, nBytes, ms.Compression())
	fmt.Printf("run it: go run ./cmd/bitflow -load %s\n", *flagOut)
}

func parseHidden(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad hidden size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
