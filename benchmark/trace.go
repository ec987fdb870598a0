package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
)

// The traced child splits its budget of `seconds` into these shares.
const (
	shareSlices = 0.50 // slicePairs alternating untraced/traced slices
	shareB1     = 0.06 // B=1 InferTimed passes (batched and HTTP workloads)
	shareGain   = 0.08 // each of fusion, compression and batch gain
	shareC1     = 0.10 // HTTP: the one-connection window
	sharePeak   = 0.02 // each kernel peak and the pack timing
	slicePairs  = 3
	// slicePieces makes a slice's pieces about as long as the run
	// window's: a slice is 1/12 of the budget, a piece 1/100.
	slicePieces = 8
	gainBatch   = 8
)

// Span names. A layer's span is spanLayer + its name.
const (
	spanInfer   = "graph.infer"    // the workload's own in-process call
	spanInferB1 = "graph.infer_b1" // an extra B=1 InferTimed pass
	spanLayer   = "graph.layer."
	spanRTT     = "serve.client_rtt"
	spanHandler = "serve.handler"
	spanServeIn = "serve.infer"
)

// tracer holds the traced child's recorder and what its spans need to be
// turned into metrics afterwards.
type tracer struct {
	rec *recorder
	// kinds maps a layer span name to the layer's kind ("conv", "fc", …).
	kinds map[string]string
	// Spans with index in [c1From, c1To) belong to the HTTP workload's
	// one-connection window.
	c1From, c1To int

	// words is each weighted layer's XOR+popcount work (see xorWords).
	words map[string]layerWords

	mu sync.Mutex
	// replies collects, per HTTP operation id, what the client read.
	replies map[int64]httpReply
}

// timedPass runs one InferTimed pass under a root span named root and
// records a child span per layer, laid end to end from the call's start:
// what is left of the root is the time the layers do not account for.
func (t *tracer) timedPass(net *graph.Network, root string, x *tensor.Tensor) []float32 {
	i := t.rec.open(root)
	got, timings := net.InferTimed(x)
	t.rec.finish(i)
	at := t.rec.spans[i].Start
	for _, lt := range timings {
		name := spanLayer + lt.Name
		t.kinds[name] = lt.Kind
		t.rec.add(name, at, at+int64(lt.Duration), i, int64(i+1))
		at += int64(lt.Duration)
	}
	return got
}

// middleware is the benchmark-owned span around Server.Handler().ServeHTTP.
// Its parent is the client's round-trip span, found through the operation
// id the client sent; requests without one (set-up, the gate) are untraced.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		start := t.rec.now()
		next.ServeHTTP(rw, r)
		if err == nil && op > 0 {
			t.rec.add(spanHandler, start, t.rec.now(), int(op-1), op)
		}
	})
}

// tracedCall returns the instrumented replacement for inst.call.
func (t *tracer) tracedCall(w workloadDef, inst *instance, d *data) func(caller, i int) error {
	switch {
	case w.http:
		return func(caller, i int) error {
			s := t.rec.open(spanRTT)
			reply, err := inst.httpx.post(caller, i, int64(s+1))
			t.rec.finish(s)
			if err == nil {
				t.mu.Lock()
				t.replies[int64(s+1)] = reply
				t.mu.Unlock()
			}
			return err
		}
	case w.batch == 1:
		return func(_, i int) error {
			if got := t.timedPass(inst.worker, spanInfer, d.inputs[i]); !bitEqual(got, d.refs[i]) {
				return fmt.Errorf("input %d: traced logits differ from the reference", i)
			}
			return nil
		}
	default:
		return func(caller, i int) error {
			s := t.rec.open(spanInfer)
			err := inst.call(caller, i)
			t.rec.finish(s)
			return err
		}
	}
}

// addServeInferSpans gives every handler span a serve.infer child as long
// as the reply's "elapsed". Only that duration is measured (by the
// server); the child is centred in its handler because its true position
// is not observable from outside.
func (t *tracer) addServeInferSpans() {
	for i, n := 0, len(t.rec.spans); i < n; i++ {
		s := t.rec.spans[i]
		reply, ok := t.replies[s.Op]
		if s.Name != spanHandler || !ok {
			continue
		}
		start := s.Start + (s.End-s.Start-int64(reply.elapsed))/2
		t.rec.add(spanServeIn, start, start+int64(reply.elapsed), i, s.Op)
	}
}

// phaseTrace is the traced run: it feeds only per-layer metrics.
func phaseTrace(w workloadDef, d *data, seconds float64, spansPath string) (*childReport, error) {
	t := &tracer{rec: newRecorder(), kinds: map[string]string{}, replies: map[int64]httpReply{}}
	budget := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	var wrap func(http.Handler) http.Handler
	if w.http {
		wrap = t.middleware
	}
	inst, err := setUp(w, d, wrap)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"setup.cold_s": inst.setup.Seconds(), "setup.median_s": inst.setup.Seconds()}
	for k, v := range inst.split {
		m[k] = v
	}
	rate, err := warmUp(inst)
	if err != nil {
		return nil, err
	}
	rep := &childReport{Metrics: m}
	count := func(res windowResult) {
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		if rep.FirstErr == "" && res.firstErr != nil {
			rep.FirstErr = res.firstErr.Error()
		}
	}

	// Untraced and traced slices alternate, so drift of the host hits both
	// alike; the ratio of their rates is the tracing overhead.
	slice := budget(shareSlices) / (2 * slicePairs)
	expect := int(2*rate*slice.Seconds()) + 64
	traced := t.tracedCall(w, inst, d)
	// Both kinds of slice are cut into pieces, pooled per kind, and reduced
	// with the run window's estimator.
	sliceRates := func(res windowResult) []float64 {
		n := min(pieceCount(len(res.done)), slicePieces)
		return pieceRates(res.done, cutPieces(res.done, slice/time.Duration(n), n), inst.perOp)
	}
	var plain windowResult
	var plainElapsed time.Duration
	var plainRates, tracedRates []float64
	runtime.GC()
	for p := 0; p < slicePairs; p++ {
		u := runWindow(inst, slice, expect, nil)
		count(u)
		plainRates = append(plainRates, sliceRates(u)...)
		plain.lat = append(plain.lat, u.lat...)
		plain.attempted += u.attempted
		plain.mallocs += u.mallocs
		plain.allocBytes += u.allocBytes
		plain.gcCycles += u.gcCycles
		plainElapsed += u.done[len(u.done)-1]

		tr := runWindow(inst, slice, expect, traced)
		count(tr)
		tracedRates = append(tracedRates, sliceRates(tr)...)
	}
	for k, v := range diagnostics(plain) {
		m[k] = v
	}
	plainRates, tracedRates = sortedCopy(plainRates), sortedCopy(tracedRates)
	m["run.latency_all_p50_ms"] = median(msOf(plain.lat))
	m["run.mean_images_per_s"] = float64(plain.attempted*inst.perOp) / plainElapsed.Seconds()
	m["run.segment_spread"] = segmentSpread(plainRates)
	m["trace.overhead_share"] = 1 - quantileSorted(tracedRates, pieceQuantile)/quantileSorted(plainRates, pieceQuantile)

	// probe is the B=1 network the layer passes and the gain ratios run on.
	probe := inst.worker
	if w.http {
		probe = inst.httpx.net.Clone() // the prototype itself is the serving replica
		probe.SetExec(exec.Serial())

		one := *inst
		one.callers = 1
		t.c1From = len(t.rec.spans)
		count(runWindow(&one, budget(shareC1), expect, traced))
		t.c1To = len(t.rec.spans)
	}
	if w.http || w.batch > 1 {
		t0 := time.Now()
		for n := 0; n < 8 || time.Since(t0) < budget(shareB1); n++ {
			i := n % len(d.inputs)
			rep.Attempted++
			if got := t.timedPass(probe, spanInferB1, d.inputs[i]); !bitEqual(got, d.refs[i]) {
				rep.Failed++
			}
		}
	}
	if err := gains(probe, d, budget(shareGain), m); err != nil {
		return nil, err
	}
	peaks(sched.Detect(), d.inputs[0], budget(sharePeak), m)
	if t.words, err = static(w, probe, d, m); err != nil {
		return nil, err
	}
	if w.http {
		serveCounters(inst.httpx, m)
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	t.addServeInferSpans()
	t.spanMetrics(m)
	if spansPath != "" {
		if err := writeSpans(spansPath, t.rec.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// gains measures whether each planning mechanism is still engaged, as the
// time of the de-optimised twin over the time of the planned network, both
// B=1 on the same inputs, calls interleaved.
func gains(probe *graph.Network, d *data, budget time.Duration, m map[string]float64) error {
	infer := func(net *graph.Network) func(i int) error {
		return func(i int) error {
			if !bitEqual(net.Infer(d.inputs[i]), d.refs[i]) {
				return fmt.Errorf("input %d: logits differ from the reference", i)
			}
			return nil
		}
	}
	planned := infer(probe)
	var err error
	if m["graph.fusion_gain"], err = ratio(infer(probe.CloneUnfused()), planned, len(d.inputs), budget); err != nil {
		return fmt.Errorf("fusion gain: %w", err)
	}
	if m["graph.compress_gain"], err = ratio(infer(probe.CloneUncompressed()), planned, len(d.inputs), budget); err != nil {
		return fmt.Errorf("compression gain: %w", err)
	}
	batched := probe.Clone()
	batched.EnsureBatch(gainBatch)
	groups := len(d.inputs) / gainBatch
	eightSingles := func(g int) error {
		for j := 0; j < gainBatch; j++ {
			if err := planned(g*gainBatch + j); err != nil {
				return err
			}
		}
		return nil
	}
	oneBatch := func(g int) error {
		lo := g * gainBatch
		outs, err := batched.InferBatch(d.inputs[lo : lo+gainBatch])
		if err != nil {
			return err
		}
		for j, got := range outs {
			if !bitEqual(got, d.refs[lo+j]) {
				return fmt.Errorf("batch %d item %d: logits differ from the reference", g, j)
			}
		}
		return nil
	}
	if m["graph.batch_gain"], err = ratio(eightSingles, oneBatch, groups, budget); err != nil {
		return fmt.Errorf("batch gain: %w", err)
	}
	return nil
}

// ratio times num and den alternately on the same rotating input index,
// for at least two rounds and until budget is spent, and returns the
// quotient of their median times.
func ratio(num, den func(i int) error, inputs int, budget time.Duration) (float64, error) {
	var tn, td []float64
	t0 := time.Now()
	for r := 0; r < 2 || time.Since(t0) < budget; r++ {
		a := time.Now()
		if err := num(r % inputs); err != nil {
			return 0, err
		}
		b := time.Now()
		if err := den(r % inputs); err != nil {
			return 0, err
		}
		c := time.Now()
		tn = append(tn, b.Sub(a).Seconds())
		td = append(td, c.Sub(b).Seconds())
	}
	return median(tn) / median(td), nil
}

// sink keeps the timed kernel calls observable to the compiler.
var sink int

// peakWords is the operand size of the cache-resident kernel timings:
// 512 words = 4 KiB.
const peakWords = 512

// peaks times the public kernels on operands that stay in L1 — what the
// microkernel achieves when memory is out of the picture — and the input
// pack on the workload's input shape.
func peaks(feat sched.Features, x *tensor.Tensor, budget time.Duration, m map[string]float64) {
	rng := uint64(0x9e3779b97f4a7c15)
	words := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			rng = rng*6364136223846793005 + 1442695040888963407
			out[i] = rng
		}
		return out
	}
	a, b := words(peakWords), words(peakWords)

	xorpop := kernels.ForWidth(feat.MaxWidth)
	m["kernels.xorpop_l1_words_per_ns"] = wordsPerNs(peakWords, budget, func() { sink += xorpop(a, b) })

	// Four row segments against one contiguous filter block, the shape of
	// a conv window's rows.
	rowsKernel := kernels.RowsForWidth(feat.MaxWidth)
	rows := [][]uint64{a[0:128], a[128:256], a[256:384], a[384:512]}
	m["kernels.xorpop_rows_l1_words_per_ns"] = wordsPerNs(peakWords, budget, func() { sink += rowsKernel(rows, b) })

	// Eight gathered 64-word blocks against one filter block.
	batchKernel := kernels.BatchForWidth(feat.MaxWidth)
	accs := make([]int32, gainBatch)
	filt := b[:peakWords/gainBatch]
	m["kernels.xorpop_batch_l1_words_per_ns"] = wordsPerNs(peakWords, budget, func() { batchKernel(a, filt, accs) })

	// A 256-filter bank repeating 4 filters of 128 words: 512 distinct
	// words to XOR+popcount per call, scattered into the folded plan.
	const K, S, base = 256, 128, 4
	bank := make([]uint64, K*S)
	for k := 0; k < K; k++ {
		copy(bank[k*S:(k+1)*S], a[(k%base)*S:(k%base+1)*S])
	}
	cp := kernels.BuildCompressPlan(bank, K, S).Eff()
	acc := make([]int32, cp.K)
	seg := b[:S]
	m["kernels.compressed_accum_words_per_ns"] = wordsPerNs(len(cp.Words), budget, func() { kernels.CompressedAccum(cp, 0, seg, acc) })

	p := bitpack.NewPacked(x.H, x.W, x.C, bitpack.WordsFor(x.C), 1, 1)
	nsPerPack := float64(x.H*x.W*x.C) / wordsPerNs(x.H*x.W*x.C, budget, func() { bitpack.PackTensorInto(x, p) })
	m["bitpack.pack_input_us"] = nsPerPack / 1e3
	m["bitpack.pack_mb_per_s"] = float64(4*len(x.Data)) / 1e6 / (nsPerPack / 1e9)
}

// wordsPerNs calls fn in batches for the budget and returns the best
// batch's rate: interference only ever slows a batch down, so the fastest
// one is the closest to what the hardware does undisturbed.
func wordsPerNs(words int, budget time.Duration, fn func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if time.Since(t0) > 200*time.Microsecond || iters > 1<<20 {
			break
		}
		iters *= 2
	}
	best := 0.0
	t0 := time.Now()
	for n := 0; n < 5 || time.Since(t0) < budget; n++ {
		b0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if r := float64(words*iters) / float64(time.Since(b0).Nanoseconds()); r > best {
			best = r
		}
	}
	return best
}

// layerWords is one weighted layer's XOR+popcount work per image.
type layerWords struct {
	kind             string
	total, effective int64
}

// xorWords computes, from layer shapes alone, the packed words each
// weighted layer XOR+popcounts per image: output pixels × filters × words
// per filter, and the same with the compression plan's distinct words for
// the layers the planner selected. Conv output sizes come from the unfused
// twin, whose conv nodes report them directly.
func xorWords(net *graph.Network) (map[string]layerWords, error) {
	pixels := map[string]int64{}
	for _, l := range net.CloneUnfused().Layers() {
		if l.Kind != "conv" {
			continue
		}
		var h, w, c int64
		if _, err := fmt.Sscanf(l.OutDims, "%dx%dx%d", &h, &w, &c); err != nil {
			return nil, fmt.Errorf("layer %s: output dims %q: %w", l.Name, l.OutDims, err)
		}
		pixels[l.Name] = h * w
	}
	out := map[string]layerWords{}
	for _, lc := range net.Compression() {
		px := int64(1) // dense
		if lc.Kind != "fc" {
			conv, _, _ := strings.Cut(lc.Layer, "+")
			var ok bool
			if px, ok = pixels[conv]; !ok {
				return nil, fmt.Errorf("layer %s: no conv %q in the unfused network", lc.Layer, conv)
			}
		}
		lw := layerWords{kind: lc.Kind, total: px * int64(lc.TotalWords)}
		lw.effective = lw.total
		if lc.Selected {
			lw.effective = px * int64(lc.DistinctWords)
		}
		out[lc.Layer] = lw
	}
	return out, nil
}

// static records what does not need a clock: plan outcomes, sizes and
// computed work counts.
func static(w workloadDef, probe *graph.Network, d *data, m map[string]float64) (map[string]layerWords, error) {
	const mib = 1 << 20
	lanes := int64(w.batch)
	m["graph.layers"] = float64(len(probe.Layers()))
	m["graph.fused_pairs"] = float64(probe.Fusion().Pairs)
	m["graph.compressed_layers"] = float64(probe.CompressedLayers())
	m["graph.activation_mib"] = float64(lanes*probe.ActivationBytes()) / mib
	m["graph.packed_weight_mib"] = float64(probe.ModelSize().BinarizedBytes) / mib
	fi, err := os.Stat(d.artifact)
	if err != nil {
		return nil, err
	}
	m["graph.artifact_mib"] = float64(fi.Size()) / mib
	m["exec.threads"] = float64(probe.Exec().Budget())

	lws, err := xorWords(probe)
	if err != nil {
		return nil, err
	}
	var total, effective int64
	for _, lw := range lws {
		total += lw.total
		effective += lw.effective
	}
	m["kernels.xor_words_per_image"] = float64(total)
	m["kernels.xor_words_effective_per_image"] = float64(effective)
	return lws, nil
}

// serveCounters reads the server's own accounting once the clients are
// quiet: conservation (requests = ok + bad + shed + panics) and a gate
// with no token still held.
func serveCounters(h *httpInstance, m map[string]float64) {
	snap := h.srv.Metrics().Snapshot()
	m["serve.requests"] = float64(snap.Requests)
	m["serve.ok"] = float64(snap.OK)
	m["serve.shed"] = float64(snap.Shed)
	m["serve.bad_requests"] = float64(snap.BadRequests)
	m["serve.panics_recovered"] = float64(snap.PanicsRecovered)
	m["resilience.gate_held_after"] = float64(h.srv.Introspect().GateHeld)
}

// spanMetrics turns the recorded spans into the timed per-layer metrics.
func (t *tracer) spanMetrics(m map[string]float64) {
	spans := t.rec.spans
	self := selfTimes(spans)
	// An HTTP span belongs to the one-connection window when its
	// operation's round-trip span was opened during it.
	inC1 := func(s span) bool { return int(s.Op-1) >= t.c1From && int(s.Op-1) < t.c1To }

	dur := map[string][]float64{} // span name → durations; HTTP spans of the c2 windows only
	handlerOf := map[int64]int{}
	var c1Self, c2Self []float64
	for i, s := range spans {
		http := strings.HasPrefix(s.Name, "serve.")
		if !http || !inC1(s) {
			dur[s.Name] = append(dur[s.Name], ms(s.dur()))
		}
		if s.Name == spanHandler {
			handlerOf[s.Op] = i
			if inC1(s) {
				c1Self = append(c1Self, ms(self[i]))
			} else {
				c2Self = append(c2Self, ms(self[i]))
			}
		}
	}

	// Layer spans hang under the workload's own call when that is a B=1
	// InferTimed pass, under the extra B=1 passes otherwise.
	layerRoot := spanInfer
	if len(dur[spanInferB1]) > 0 {
		layerRoot = spanInferB1
	}
	var rootDur, rootSelf time.Duration
	var transport []float64
	for i, s := range spans {
		switch s.Name {
		case layerRoot:
			rootDur += s.dur()
			rootSelf += self[i]
		case spanRTT:
			if h, ok := handlerOf[s.Op]; ok && !inC1(s) {
				transport = append(transport, ms(s.dur()-spans[h].dur()))
			}
		}
	}
	m["graph.infer_ms"] = median(dur[spanInfer])
	if len(dur[spanInfer]) == 0 {
		m["graph.infer_ms"] = median(dur[spanInferB1])
	}
	if rootDur > 0 {
		m["graph.untimed_share"] = float64(rootSelf) / float64(rootDur)
	}

	kindMs := map[string]float64{}
	for name, kind := range t.kinds {
		p50 := median(dur[name])
		m[layerMetric(strings.TrimPrefix(name, spanLayer))] = p50
		kindMs[kind] += p50
	}
	m["graph.pack_ms"] = kindMs["pack"]
	m["graph.conv_ms"] = kindMs["conv"]
	m["graph.conv_pool_ms"] = kindMs["conv+pool"]
	m["graph.fc_ms"] = kindMs["fc"]
	m["graph.pool_ms"] = kindMs["pool"]

	// Achieved words/ns per operator family, and how close conv comes to
	// the matching cache-resident kernel: the compressed accumulator when
	// the planner selected every conv, the row kernel otherwise (layer
	// times always come from B=1 passes).
	var convWords, fcWords int64
	allPressed := true
	for _, lw := range t.words {
		if lw.kind == "fc" {
			fcWords += lw.effective
			continue
		}
		convWords += lw.effective
		allPressed = allPressed && lw.effective < lw.total
	}
	if convMs := kindMs["conv"] + kindMs["conv+pool"]; convMs > 0 {
		m["core.conv_words_per_ns"] = float64(convWords) / (convMs * 1e6)
		peak := m["kernels.xorpop_rows_l1_words_per_ns"]
		if allPressed {
			peak = m["kernels.compressed_accum_words_per_ns"]
		}
		if peak > 0 {
			m["core.conv_peak_fraction"] = m["core.conv_words_per_ns"] / peak
		}
	}
	if kindMs["fc"] > 0 {
		m["core.fc_words_per_ns"] = float64(fcWords) / (kindMs["fc"] * 1e6)
	}

	if len(dur[spanRTT]) == 0 {
		return
	}
	m["serve.client_rtt_ms"] = median(dur[spanRTT])
	m["serve.handler_ms"] = median(dur[spanHandler])
	m["serve.infer_ms"] = median(dur[spanServeIn])
	m["serve.handler_self_c1_ms"] = median(c1Self)
	m["serve.handler_self_c2_ms"] = median(c2Self)
	m["resilience.gate_wait_ms"] = median(c2Self) - median(c1Self)
	m["serve.transport_ms"] = median(transport)
	var reqBytes, resBytes []float64
	for _, r := range t.replies {
		reqBytes = append(reqBytes, float64(r.reqBytes))
		resBytes = append(resBytes, float64(r.resBytes))
	}
	m["serve.request_bytes"] = median(reqBytes)
	m["serve.response_bytes"] = median(resBytes)
}
