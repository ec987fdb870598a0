package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// A measured window is cut into pieces — a hundred, or fewer so that a
// piece holds at least callsPerPiece calls — and both end-to-end rates are
// read off the pieces the host left alone: images_per_s is the upper
// decile of the pieces' rates, latency_p50_ms the lower decile of the
// pieces' median call latencies. Interference on a shared host comes in
// sub-second bursts that touch most multi-second stretches but spare the
// best tenth of quarter-second ones: over 8 runs of identical code this
// spread 1.8% (dupnet_b1 rate) and 0.8% (its latency) where the median of
// ten 2.4 s rates spread 5.4% and the plain p50 3.0% (README, "Why
// deciles of pieces"). A cost the program itself pays at least four times
// a second — collections, per-request work — is in every piece and so in
// both figures; run.mean_images_per_s keeps the plain mean visible.
const (
	maxPieces     = 100
	callsPerPiece = 8
	pieceQuantile = 0.90
)

// pieceCount plans how many pieces a window with this many calls gets.
func pieceCount(calls int) int {
	return min(max(calls/callsPerPiece, 1), maxPieces)
}

// windowResult is what one closed-loop window observed.
type windowResult struct {
	// done holds every operation's completion time since the window
	// started, ascending; lat[i] is the same operation's duration as its
	// caller saw it.
	done, lat         []time.Duration
	attempted, failed int
	firstErr          error
	// Heap activity across the window (runtime.MemStats deltas).
	mallocs, allocBytes uint64
	gcCycles            uint32
}

// runWindow drives inst closed-loop for d: every caller issues its next
// call as soon as the previous one returned. call, when non-nil, replaces
// inst.call (the traced child's instrumented call); expectOps sizes the
// sample buffers. A single caller runs on the calling goroutine.
func runWindow(inst *instance, d time.Duration, expectOps int, call func(caller, i int) error) windowResult {
	if call == nil {
		call = inst.call
	}
	// Each caller keeps its own record; they are merged after the window.
	logs := make([]windowResult, inst.callers)
	for c := range logs {
		n := expectOps/inst.callers + 64
		logs[c] = windowResult{done: make([]time.Duration, 0, n), lat: make([]time.Duration, 0, n)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	loop := func(c int) {
		lg := &logs[c]
		// Callers walk the rotation from evenly spaced offsets, so two
		// connections do not post the same body at the same time.
		i := c * inst.distinct / inst.callers
		for {
			start := time.Now()
			err := call(c, i%inst.distinct)
			end := time.Now()
			lg.lat = append(lg.lat, end.Sub(start))
			lg.done = append(lg.done, end.Sub(t0))
			if err != nil {
				lg.failed++
				if lg.firstErr == nil {
					lg.firstErr = err
				}
			}
			i++
			if end.Sub(t0) >= d {
				return
			}
		}
	}
	if inst.callers == 1 {
		loop(0)
	} else {
		finished := make(chan struct{}, inst.callers)
		for c := 0; c < inst.callers; c++ {
			//bitflow:go-ok closed-loop load generator: one live goroutine per client connection, joined on the finished channel below
			go func() {
				loop(c)
				finished <- struct{}{}
			}()
		}
		for c := 0; c < inst.callers; c++ {
			<-finished
		}
	}
	runtime.ReadMemStats(&after)

	res := windowResult{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
	}
	for _, lg := range logs {
		res.done = append(res.done, lg.done...)
		res.lat = append(res.lat, lg.lat...)
		res.failed += lg.failed
		if res.firstErr == nil {
			res.firstErr = lg.firstErr
		}
	}
	res.attempted = len(res.lat)
	if inst.callers > 1 {
		sort.Sort(byCompletion(res))
	}
	return res
}

// byCompletion orders a merged window's operations by completion time,
// keeping each latency with its completion.
type byCompletion windowResult

func (b byCompletion) Len() int           { return len(b.done) }
func (b byCompletion) Less(i, j int) bool { return b.done[i] < b.done[j] }
func (b byCompletion) Swap(i, j int) {
	b.done[i], b.done[j] = b.done[j], b.done[i]
	b.lat[i], b.lat[j] = b.lat[j], b.lat[i]
}

// gate is the correctness check that precedes any timing: every distinct
// call must reproduce its reference logits bit for bit.
func gate(inst *instance) error {
	for i := 0; i < inst.distinct; i++ {
		if err := inst.call(i%inst.callers, i); err != nil {
			return fmt.Errorf("correctness gate: %w", err)
		}
	}
	return nil
}

// Warm-up runs until at least warmMin has passed and warmCalls calls were
// made, but never longer than warmMax (VGG-16 needs 0.29 s per call).
const (
	warmMin   = 3 * time.Second
	warmMax   = 6 * time.Second
	warmCalls = 20
)

// warmUp passes the correctness gate, then keeps the workload running
// until caches, the heap and (over HTTP) both connections are warm. It
// returns the observed operations per second, which sizes the window's
// sample buffers.
func warmUp(inst *instance) (opsPerSec float64, err error) {
	t0 := time.Now()
	if err := gate(inst); err != nil {
		return 0, err
	}
	calls := inst.distinct
	for time.Since(t0) < warmMax && (time.Since(t0) < warmMin || calls < warmCalls) {
		res := runWindow(inst, 500*time.Millisecond, 1024, nil)
		if res.failed > 0 {
			return 0, fmt.Errorf("warm-up: %d of %d calls failed: %w", res.failed, res.attempted, res.firstErr)
		}
		calls += res.attempted
	}
	return float64(calls) / time.Since(t0).Seconds(), nil
}

// windowMetrics reduces a window of planned length `window` to the two
// end-to-end rates and the run.* diagnostics.
func windowMetrics(res windowResult, window time.Duration, perOp int) map[string]float64 {
	n := pieceCount(len(res.done))
	ends := cutPieces(res.done, window/time.Duration(n), n)
	rates := sortedCopy(pieceRates(res.done, ends, perOp))
	lat := msOf(res.lat)
	m := diagnostics(res)
	m["images_per_s"] = quantileSorted(rates, pieceQuantile)
	m["latency_p50_ms"] = quantileSorted(sortedCopy(pieceMedians(lat, ends)), 1-pieceQuantile)
	m["run.latency_all_p50_ms"] = median(lat)
	m["run.segment_spread"] = segmentSpread(rates)
	if n := len(res.done); n > 0 {
		m["run.mean_images_per_s"] = float64(n*perOp) / res.done[n-1].Seconds()
	}
	return m
}

// segmentSpread is the share by which the typical piece fell short of
// the undisturbed ones: (p90 − p50) ÷ p90 of the sorted piece rates.
// Quiet runs read 0.01–0.07; above 0.10 the host was disturbed for most of
// the window.
func segmentSpread(sortedRates []float64) float64 {
	top := quantileSorted(sortedRates, pieceQuantile)
	if top == 0 {
		return 0
	}
	return (top - quantileSorted(sortedRates, 0.5)) / top
}

// diagnostics are the run.* figures that need only the latencies and the
// heap counters: sample count, the tail percentiles the sample supports,
// and allocation per call.
func diagnostics(res windowResult) map[string]float64 {
	lat := sortedCopy(msOf(res.lat))
	ops := float64(max(res.attempted, 1))
	m := map[string]float64{
		"run.samples":            float64(len(lat)),
		"run.allocs_per_op":      float64(res.mallocs) / ops,
		"run.alloc_bytes_per_op": float64(res.allocBytes) / ops,
		"run.gc_cycles":          float64(res.gcCycles),
	}
	if v, ok := tailPercentile(lat, 0.90); ok {
		m["run.latency_p90_ms"] = v
	}
	if v, ok := tailPercentile(lat, 0.99); ok {
		m["run.latency_p99_ms"] = v
	}
	return m
}
