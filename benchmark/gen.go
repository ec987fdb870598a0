package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// workloadDef is one workload: its name, why it exists (BENCHMARK.json
// mirrors both, pinned by TestBenchmarkJSONMatchesSpec), and what the gen
// step and the measured children need to know about it.
type workloadDef struct {
	name, why string
	// net is the network's Name, the key into layerNames.
	net   string
	build func(feat sched.Features, seed uint64) (*graph.Network, error)
	// inputs is the number of distinct input tensors, rotated. VGG-16
	// uses 8, not 64: its reference logits cost 0.35 s per input on the
	// unfused clone, and the gen step runs before every measured run.
	inputs int
	// batch is the images per call (1 = Infer, 8 = InferBatch).
	batch int
	http  bool
}

var workloadDefs = []workloadDef{
	{name: "vgg16_b1", net: "VGG16", inputs: 8, batch: 1,
		why: "paper headline: one caller, VGG-16 Infer back to back; 17 MB packed weights miss L2, so conv XOR+popcount is ~all of the time and only kernels/core changes show",
		build: func(feat sched.Features, seed uint64) (*graph.Network, error) {
			return graph.VGG16(feat, graph.RandomWeights{Seed: seed})
		}},
	{name: "tinyvgg_b8", net: "TinyVGG", inputs: 64, batch: 8, build: buildTinyVGG,
		why: "cache-resident TinyVGG via InferBatch(8): exercises the ForwardFusedBatch/XorPopBatch families, where pack, epilogue and dense are a visible share"},
	{name: "dupnet_b1", net: "DupNet", inputs: 64, batch: 1, build: buildDupNet,
		why: "every conv bank repeats 4 filters, so kernels.CompressedAccum and graph/press.go do the work; plain-kernel changes should not move it, lost plan selection is a 6x cliff"},
	{name: "http_tinyvgg_c2", net: "TinyVGG", inputs: 64, batch: 1, http: true, build: buildTinyVGG,
		why: "TinyVGG behind serve on loopback, 2 keep-alive JSON clients, batching off: inference is under half a request, so decode, admission and encode costs show"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func buildTinyVGG(feat sched.Features, seed uint64) (*graph.Network, error) {
	return graph.TinyVGG(feat, graph.RandomWeights{Seed: seed})
}

// dupWeights repeats four base filters through every conv bank, the
// duplication profile on which the load-time planner selects the
// compressed path for all four convs (ratio 64–128).
type dupWeights struct{ graph.RandomWeights }

func (d dupWeights) ConvFilter(name string, k, kh, kw, c int) (*tensor.Filter, error) {
	f, err := d.RandomWeights.ConvFilter(name, k, kh, kw, c)
	if err != nil {
		return nil, err
	}
	per := kh * kw * c
	for i := 4; i < k; i++ {
		copy(f.Data[i*per:(i+1)*per], f.Data[(i%4)*per:(i%4+1)*per])
	}
	return f, nil
}

func buildDupNet(feat sched.Features, seed uint64) (*graph.Network, error) {
	return graph.NewBuilder("DupNet", 32, 32, 64, feat).
		Conv3x3("c1", 256).
		Conv3x3("c2", 256).
		Pool("p1", 2, 2, 2).
		Conv3x3("c3", 512).
		Conv3x3("c4", 512).
		Pool("p2", 2, 2, 2).
		Flatten().
		Dense("fc", 10).
		Build(dupWeights{graph.RandomWeights{Seed: seed}})
}

const (
	artifactFile = "model.bflw"
	inputsFile   = "inputs.f32"
	refFile      = "ref.f32"
)

// generate is the untimed gen step: it builds the workload's network from
// the seed, saves it as an artifact, draws the input tensors, and records
// the reference logits — serial Infer on the CloneUnfused+CloneUncompressed
// twin of the network loaded back from that artifact. The measured
// children receive only these three files.
func generate(w workloadDef, seed uint64, dir string) error {
	feat := sched.Detect()
	net, err := w.build(feat, seed)
	if err != nil {
		return fmt.Errorf("building %s: %w", w.net, err)
	}
	path := filepath.Join(dir, artifactFile)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := net.Save(bw); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", w.net, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	inputs := genInputs(seed, w.inputs, net.InH, net.InW, net.InC)
	if err := writeTensors(filepath.Join(dir, inputsFile), inputs); err != nil {
		return err
	}

	loaded, err := loadNetwork(path, feat)
	if err != nil {
		return err
	}
	ref := loaded.CloneUnfused().CloneUncompressed()
	ref.SetExec(exec.Serial())
	logits := make([][]float32, len(inputs))
	for i, x := range inputs {
		logits[i] = ref.Infer(x)
	}
	return writeLogits(filepath.Join(dir, refFile), logits)
}

// genInputs draws n distinct tensors with values in [-1, 1); the stream
// depends on the seed and the tensor's index only.
func genInputs(seed uint64, n, h, w, c int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		rng := workload.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(i) + 0xB17F)
		out[i] = workload.RandTensor(rng, h, w, c)
	}
	return out
}

func loadNetwork(path string, feat sched.Features) (*graph.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := graph.Load(f, feat)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return net, nil
}

// The tensor and logits files are four little-endian uint32 (rows, then
// three dimensions whose product is the row length) followed by raw
// float32 bits, so equal seeds give byte-identical files.

func writeTensors(path string, ts []*tensor.Tensor) error {
	rows := make([][]float32, len(ts))
	for i, t := range ts {
		rows[i] = t.Data
	}
	return writeFloats(path, [3]int{ts[0].H, ts[0].W, ts[0].C}, rows)
}

func readTensors(path string) ([]*tensor.Tensor, error) {
	dims, rows, err := readFloats(path)
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, len(rows))
	for i, r := range rows {
		out[i] = tensor.FromSlice(dims[0], dims[1], dims[2], r)
	}
	return out, nil
}

func writeLogits(path string, logits [][]float32) error {
	return writeFloats(path, [3]int{len(logits[0]), 1, 1}, logits)
}

func readLogits(path string) ([][]float32, error) {
	_, rows, err := readFloats(path)
	return rows, err
}

func writeFloats(path string, dims [3]int, rows [][]float32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	hdr := []uint32{uint32(len(rows)), uint32(dims[0]), uint32(dims[1]), uint32(dims[2])}
	werr := binary.Write(bw, binary.LittleEndian, hdr)
	for _, r := range rows {
		if werr == nil {
			werr = binary.Write(bw, binary.LittleEndian, r)
		}
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// maxFileFloats bounds what a header may claim (the largest real file is
// 64 DupNet inputs, 4 Mi floats), so a damaged header cannot demand an
// absurd allocation.
const maxFileFloats = 1 << 26

func readFloats(path string) (dims [3]int, rows [][]float32, err error) {
	f, err := os.Open(path)
	if err != nil {
		return dims, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [4]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return dims, nil, fmt.Errorf("%s: header: %w", path, err)
	}
	n := int(hdr[0])
	dims = [3]int{int(hdr[1]), int(hdr[2]), int(hdr[3])}
	per := 1
	for _, d := range dims {
		if d <= 0 || d > maxFileFloats/per {
			return dims, nil, fmt.Errorf("%s: implausible shape %d x %v", path, n, dims)
		}
		per *= d
	}
	if n <= 0 || n > maxFileFloats/per {
		return dims, nil, fmt.Errorf("%s: implausible shape %d x %v", path, n, dims)
	}
	rows = make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, per)
		if err := binary.Read(br, binary.LittleEndian, rows[i]); err != nil {
			return dims, nil, fmt.Errorf("%s: row %d: %w", path, i, err)
		}
	}
	return dims, rows, nil
}

// bitEqual reports whether two logit vectors are bit-identical.
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
