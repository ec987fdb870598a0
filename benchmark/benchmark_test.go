package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"bitflow/internal/sched"
)

// steadyWithStalls returns completion times of back-to-back operations of
// length op over total, with every listed stall inserted once at its
// start time (the operation then in flight takes op+stall).
func steadyWithStalls(op, total time.Duration, stalls map[time.Duration]time.Duration) []time.Duration {
	var done []time.Duration
	at := time.Duration(0)
	for at < total {
		end := at + op
		for start, length := range stalls {
			if start >= at && start < end {
				end += length
			}
		}
		done = append(done, end)
		at = end
	}
	return done
}

// windowOf builds a single-caller window from completion times: each
// call's latency is the gap to the previous completion.
func windowOf(done []time.Duration) windowResult {
	lat := make([]time.Duration, len(done))
	prev := time.Duration(0)
	for i, d := range done {
		lat[i], prev = d-prev, d
	}
	return windowResult{done: done, lat: lat, attempted: len(done)}
}

func TestPieceEstimatorsIgnoreBursts(t *testing.T) {
	const op = 10 * time.Millisecond
	window := 30 * time.Second
	// Bursts of interference: a 100 ms stall every 400 ms for the first
	// 20 s, then quiet. Every multi-second stretch of those 20 s is hit,
	// a third of the 300 ms pieces is not.
	stalls := map[time.Duration]time.Duration{}
	for at := 50 * time.Millisecond; at < 20*time.Second; at += 400 * time.Millisecond {
		stalls[at] = 100 * time.Millisecond
	}
	done := steadyWithStalls(op, window, stalls)
	m := windowMetrics(windowOf(done), window, 1)
	if got := m["images_per_s"]; math.Abs(got-100) > 1 {
		t.Errorf("images_per_s = %.2f, want the undisturbed 100/s", got)
	}
	if got := m["latency_p50_ms"]; math.Abs(got-10) > 0.01 {
		t.Errorf("latency_p50_ms = %.3f, want the undisturbed 10 ms", got)
	}
	if mean := m["run.mean_images_per_s"]; mean > 88 || mean < 80 {
		t.Errorf("mean rate %.2f/s: the fixture's stalls should cost the mean ~15%%", mean)
	}
	if ten := median(segmentRates(done, window/10, 10, 1)); ten > 90 {
		t.Errorf("median of ten 3 s pieces = %.2f/s: the fixture should fool it", ten)
	}
	if s := m["run.segment_spread"]; s < spreadWarn {
		t.Errorf("run.segment_spread %.3f: a window disturbed for two thirds of its length must be flagged", s)
	}
	quiet := windowMetrics(windowOf(steadyWithStalls(op, window, nil)), window, 1)
	if s := quiet["run.segment_spread"]; s > 0.001 {
		t.Errorf("run.segment_spread %.4f on an undisturbed window", s)
	}
	// A uniformly slower program is slower in every piece: both figures move 1:1.
	slow := windowMetrics(windowOf(steadyWithStalls(11*time.Millisecond, window, nil)), window, 1)
	if r, l := slow["images_per_s"], slow["latency_p50_ms"]; math.Abs(r-1000.0/11) > 0.5 || math.Abs(l-11) > 0.01 {
		t.Errorf("10%% slower calls read %.2f/s and %.3f ms", r, l)
	}
}

func TestPieceCount(t *testing.T) {
	for calls, want := range map[int]int{0: 1, 7: 1, 85: 10, 799: 99, 800: 100, 9000: 100} {
		if got := pieceCount(calls); got != want {
			t.Errorf("pieceCount(%d) = %d, want %d", calls, got, want)
		}
	}
	// Two callers: latencies stay with their completions through the merge.
	res := windowResult{
		done: []time.Duration{30, 10, 20},
		lat:  []time.Duration{3, 1, 2},
	}
	sort.Sort(byCompletion(res))
	for i := range res.done {
		if res.done[i] != 10*res.lat[i] {
			t.Fatalf("merge separated completion %v from latency %v", res.done, res.lat)
		}
	}
	got := pieceMedians([]float64{1, 2, 3, 10, 20}, []int{3, 5})
	if len(got) != 2 || got[0] != 2 || got[1] != 15 {
		t.Errorf("pieceMedians = %v, want [2 15]", got)
	}
}

// segmentRates cuts done into n pieces of length seg and returns their rates.
func segmentRates(done []time.Duration, seg time.Duration, n, perOp int) []float64 {
	return pieceRates(done, cutPieces(done, seg, n), perOp)
}

func TestSegmentRatesByHand(t *testing.T) {
	// Completions at 1, 2, 3.5, 4 and 7 s, 2 s segments: a segment ends at
	// the first completion at or after its boundary.
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	got := segmentRates([]time.Duration{sec(1), sec(2), sec(3.5), sec(4), sec(7)}, sec(2), 3, 1)
	want := []float64{2.0 / 2, 2.0 / 2, 1.0 / 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("segment %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSegmentRatesSlowCallsAreNotQuantised(t *testing.T) {
	// 290 ms calls, 3 s segments: ~10.3 calls per segment. Counting whole
	// calls per fixed 3 s would read 10 or 11 (±5%); ending each segment
	// on a completion reads the true rate in every segment.
	done := steadyWithStalls(290*time.Millisecond, 30*time.Second, nil)
	for k, r := range segmentRates(done, 3*time.Second, 10, 1) {
		if want := 1 / 0.29; math.Abs(r-want)/want > 1e-9 {
			t.Errorf("segment %d: rate %.6f, want %.6f", k, r, want)
		}
	}
	// Eight images per call scale the rate, not the segmentation.
	r8 := segmentRates(done, 3*time.Second, 10, 8)
	if want := 8 / 0.29; math.Abs(r8[0]-want)/want > 1e-9 {
		t.Errorf("batched rate %.6f, want %.6f", r8[0], want)
	}
	// Calls longer than a piece: every call becomes its own piece.
	short := segmentRates(done, 100*time.Millisecond, 300, 1)
	if len(short) != len(done) {
		t.Errorf("%d pieces for %d calls longer than a piece", len(short), len(done))
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true}, {105, 0.90, true},
		{999, 0.99, false}, {1000, 0.99, true}, {100, 0.99, false},
	} {
		if _, ok := tailPercentile(series(c.n), c.q); ok != c.want {
			t.Errorf("n=%d q=%.2f: supported=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
	// One injected stall must not move a supported percentile much.
	s := series(1000)
	clean, _ := tailPercentile(s, 0.90)
	s[999] = 1e6
	stalled, _ := tailPercentile(s, 0.90)
	if clean != stalled {
		t.Errorf("p90 moved from %v to %v on a single stall", clean, stalled)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("three values: got %v %v %v", q1, q2, q3)
	}
}

func TestNames(t *testing.T) {
	for _, ok := range []string{"vgg16_b1", "graph.layer.conv1.2_pool1.ms", "1st", "a-b.c_d"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := string(bytes.Repeat([]byte("x"), 65))
	for _, bad := range []string{"", "_x", ".x", "conv1.2+pool1", "a b", "a/b", "é", long} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := checkSpecs(); err != nil {
		t.Fatal(err)
	}
	if n := len(perLayerSpecs()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	for net, layers := range layerNames {
		for _, l := range layers {
			if !validName(layerMetric(l)) {
				t.Errorf("%s layer %q makes an invalid metric name", net, l)
			}
		}
	}
	if got := layerMetric("conv1.2+pool1"); got != "graph.layer.conv1.2_pool1.ms" {
		t.Errorf("layerMetric = %q", got)
	}
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the tables in
// spec.go, so neither can drift alone.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, spec has %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, spec %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec has %d", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
				t.Errorf("%s %d: %+v, spec %+v", kind, i, g, s)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != s.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, s.Name)
			}
			if bounded && (s.Bound <= 0 || s.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, s.Name, s.Bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEndSpecs, true)
	compare("per_layer", doc.PerLayer, perLayerSpecs(), false)
}

func TestXorWordsTinyVGG(t *testing.T) {
	net, err := buildTinyVGG(sched.Detect(), 7)
	if err != nil {
		t.Fatal(err)
	}
	lws, err := xorWords(net)
	if err != nil {
		t.Fatal(err)
	}
	// By hand, one packed word per pixel up to 64 channels, 3×3 windows:
	//   conv1.1  32·32 px × 64 filters ×  9 words = 589 824
	//   conv1.2  32·32 px × 64 filters ×  9 words = 589 824
	//   conv2.1  16·16 px × 128 filters × 9 words = 294 912
	//   fc1      256 units × 8·8·128/64 words     =  32 768
	//   fc2      10 units × 256/64 words          =      40
	const want = 589824 + 589824 + 294912 + 32768 + 40
	var total int64
	for _, lw := range lws {
		total += lw.total
		if lw.effective > lw.total {
			t.Errorf("effective words %d exceed total %d", lw.effective, lw.total)
		}
	}
	if total != want {
		t.Errorf("TinyVGG XORs %d words per image, want %d", total, want)
	}
	if got := lws["conv2.1+pool2"].total; got != 294912 {
		t.Errorf("fused conv2.1+pool2: %d words, want 294912", got)
	}
}

func TestDupNetSelectsEveryConv(t *testing.T) {
	net, err := buildDupNet(sched.Detect(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, lc := range net.Compression() {
		if conv := lc.Kind != "fc"; conv != lc.Selected {
			t.Errorf("layer %s (%s): selected=%v ratio %.1f", lc.Layer, lc.Kind, lc.Selected, lc.Ratio)
		}
	}
	var names []string
	names = append(names, "input")
	for _, l := range net.Layers() {
		names = append(names, l.Name)
	}
	for i, l := range layerNames["DupNet"] {
		if i >= len(names) || layerMetric(names[i]) != layerMetric(l) {
			t.Fatalf("DupNet layers %v do not match spec %v", names, layerNames["DupNet"])
		}
	}
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := findWorkload("tinyvgg_b8")
	read := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		for _, f := range []string{artifactFile, inputsFile, refFile} {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			out[f] = b
		}
		return out
	}
	gen := func(seed uint64) map[string][]byte {
		dir := t.TempDir()
		if err := generate(w, seed, dir); err != nil {
			t.Fatal(err)
		}
		return read(dir)
	}
	a, b, c := gen(42), gen(42), gen(43)
	for f := range a {
		if !bytes.Equal(a[f], b[f]) {
			t.Errorf("%s differs between two runs with the same seed", f)
		}
		if bytes.Equal(a[f], c[f]) {
			t.Errorf("%s is the same for two seeds", f)
		}
	}
	// The files read back as written, and the measured configuration
	// reproduces the reference on them.
	dir := t.TempDir()
	if err := generate(w, 42, dir); err != nil {
		t.Fatal(err)
	}
	d, err := readData(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.inputs) != w.inputs || len(d.refs) != w.inputs {
		t.Fatalf("%d inputs, %d refs, want %d", len(d.inputs), len(d.refs), w.inputs)
	}
	inst, err := setUp(w, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate(inst); err != nil {
		t.Error(err)
	}
	d.refs[9][0]++ // a wrong logit anywhere must fail its call
	if err := gate(inst); err == nil {
		t.Error("the gate passed a logit that differs from the reference")
	}
}

func TestSelfTimesNested(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping, merged to
	// 10..50) and 60..120 (clipped to 60..100); the first child has a
	// grandchild 12..18.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "b", Start: 20, End: 50, Parent: 0, Op: 1},
		{Name: "a", Start: 10, End: 30, Parent: 0, Op: 1},
		{Name: "c", Start: 60, End: 120, Parent: 0, Op: 1},
		{Name: "aa", Start: 12, End: 18, Parent: 2, Op: 1},
		{Name: "other", Start: 0, End: 40, Parent: -1, Op: 2},
	}
	want := []time.Duration{20, 30, 14, 60, 6, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestHTTPWorkloadTraced drives the HTTP workload end to end for a moment
// with the traced child's middleware: two client goroutines and the
// server's handlers record spans concurrently (run under -race), every
// reply is verified, and the server's own counters balance afterwards.
func TestHTTPWorkloadTraced(t *testing.T) {
	w, _ := findWorkload("http_tinyvgg_c2")
	dir := t.TempDir()
	if err := generate(w, 3, dir); err != nil {
		t.Fatal(err)
	}
	d, err := readData(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{rec: newRecorder(), kinds: map[string]string{}, replies: map[int64]httpReply{}}
	inst, err := setUp(w, d, tr.middleware)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate(inst); err != nil {
		t.Fatal(err)
	}
	res := runWindow(inst, 300*time.Millisecond, 256, tr.tracedCall(w, inst, d))
	if res.failed > 0 || res.attempted < 4 {
		t.Fatalf("%d of %d traced requests failed: %v", res.failed, res.attempted, res.firstErr)
	}
	m := map[string]float64{}
	serveCounters(inst.httpx, m)
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	tr.addServeInferSpans()
	tr.spanMetrics(m)
	// set-up's first request + the gate + the window, all answered 200.
	if want := float64(1 + inst.distinct + res.attempted); m["serve.requests"] != want || m["serve.ok"] != want {
		t.Errorf("server counted %v requests, %v ok; the clients sent %v", m["serve.requests"], m["serve.ok"], want)
	}
	if m["resilience.gate_held_after"] != 0 {
		t.Errorf("%v gate tokens still held", m["resilience.gate_held_after"])
	}
	rtt, handler, infer, self := m["serve.client_rtt_ms"], m["serve.handler_ms"], m["serve.infer_ms"], m["serve.handler_self_c2_ms"]
	if !(rtt > handler && handler > infer && infer > 0 && self > 0 && self < handler) {
		t.Errorf("rtt %v, handler %v, infer %v, handler self %v: want rtt > handler > infer > 0 and 0 < self < handler", rtt, handler, infer, self)
	}
	if m["serve.request_bytes"] < 20000 || m["serve.response_bytes"] < 20 {
		t.Errorf("body sizes %v / %v", m["serve.request_bytes"], m["serve.response_bytes"])
	}
}
