// The `exec` subcommand benchmarks the execution-context layer
// (internal/exec) and emits BENCH_exec.json:
//
//  1. small_ops — spawn-per-call vs pooled dispatch on the scaled-down
//     Table IV operators, where per-call goroutine churn is largest
//     relative to the work: the overhead the persistent pool removes.
//  2. vgg16_e2e — one full network forward pass under both dispatch
//     modes, checking the pool does not tax the large-op regime.
//  3. closed_loop — a replica-pool serving loop before (every replica
//     spawns its own goroutines per layer) and after (all replicas share
//     one pool) the refactor, at the same client count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

var (
	flagExecOut = flag.String("exec-out", "BENCH_exec.json", "output path for the `exec` subcommand report")
	flagExecDur = flag.Duration("exec-dur", 2*time.Second, "measurement duration per closed-loop configuration")
)

type execOpRow struct {
	Op            string  `json:"op"`
	Threads       int     `json:"threads"`
	SpawnMs       float64 `json:"spawn_ms"`
	PooledMs      float64 `json:"pooled_ms"`
	PooledSpeedup float64 `json:"pooled_speedup"`
}

type execLoopRow struct {
	Dispatch     string  `json:"dispatch"` // "spawn-per-call" or "shared-pool"
	Clients      int     `json:"clients"`
	Replicas     int     `json:"replicas"`
	Threads      int     `json:"threads"`
	ImagesPerSec float64 `json:"images_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	// Speedup compares against the spawn row at the same client count
	// (shared-pool rows only).
	Speedup float64 `json:"speedup,omitempty"`
}

type execReport struct {
	Features   string        `json:"features"`
	Cores      int           `json:"cores"`
	Threads    int           `json:"threads"`
	SmallOps   []execOpRow   `json:"small_ops"`
	VGG16E2E   *execOpRow    `json:"vgg16_e2e,omitempty"`
	ClosedLoop []execLoopRow `json:"closed_loop"`
}

func runExecBench(feat sched.Features) error {
	const threads = 4
	pool := exec.NewPool(threads)
	pool.SetSource("bench")
	defer pool.Close()
	spawnEC := exec.Spawn(threads)
	pooledEC := exec.Pooled(pool, threads)

	rep := execReport{
		Features: fmt.Sprint(feat),
		Cores:    bench.PhysicalCores(),
		Threads:  threads,
	}

	// --- Section 1: dispatch overhead on the small Table IV ops ------
	fmt.Printf("== exec dispatch: spawn-per-call vs persistent pool (%d threads) ==\n", threads)
	to := bench.NewTable("op", "spawn", "pooled", "pooled speedup")
	for _, cfg := range workload.SmallOps() {
		switch cfg.Name {
		case "conv2.1s", "pool4s", "pool5s", "fc7s":
		default:
			continue
		}
		run, err := buildExecRunner(cfg, feat, *flagSeed)
		if err != nil {
			return err
		}
		spawn := measureEC(run, spawnEC)
		pooled := measureEC(run, pooledEC)
		row := execOpRow{
			Op: cfg.Name, Threads: threads,
			SpawnMs:       ms(spawn),
			PooledMs:      ms(pooled),
			PooledSpeedup: round2(float64(spawn) / float64(pooled)),
		}
		rep.SmallOps = append(rep.SmallOps, row)
		to.Row(cfg.Name, bench.Ms(spawn), bench.Ms(pooled), fmt.Sprintf("%.2fx", row.PooledSpeedup))
	}
	to.Render(os.Stdout)
	fmt.Println()

	// --- Section 2: full-network forward pass ------------------------
	// Large ops amortize dispatch; the pool must at least hold serve.
	netName := "VGG16"
	buildNet := func() (*graph.Network, error) {
		return graph.VGG16(feat, graph.RandomWeights{Seed: *flagSeed})
	}
	if *flagQuick {
		netName = "TinyVGG"
		buildNet = func() (*graph.Network, error) {
			return graph.TinyVGG(feat, graph.RandomWeights{Seed: *flagSeed})
		}
	}
	net, err := buildNet()
	if err != nil {
		return err
	}
	x := workload.RandTensor(workload.NewRNG(*flagSeed+1), net.InH, net.InW, net.InC)
	net.Infer(x) // warm-up: allocate outputs, fault weights in
	e2eRuns := *flagRuns
	if e2eRuns > 3 && !*flagQuick {
		e2eRuns = 3
	}
	net.SetExec(spawnEC)
	net.Infer(x) // per-mode warm-up, then collect build garbage
	runtime.GC()
	spawnE2E := bench.Measure(e2eRuns, 0, func() { net.Infer(x) })
	net.SetExec(pooledEC)
	net.Infer(x)
	runtime.GC()
	pooledE2E := bench.Measure(e2eRuns, 0, func() { net.Infer(x) })
	e2e := execOpRow{
		Op: netName + " e2e", Threads: threads,
		SpawnMs:       ms(spawnE2E),
		PooledMs:      ms(pooledE2E),
		PooledSpeedup: round2(float64(spawnE2E) / float64(pooledE2E)),
	}
	rep.VGG16E2E = &e2e
	fmt.Printf("== %s end-to-end: spawn %s, pooled %s (%.2fx) ==\n\n",
		netName, bench.Ms(spawnE2E), bench.Ms(pooledE2E), e2e.PooledSpeedup)

	// --- Section 3: closed-loop serving before/after -----------------
	const replicas = 2
	clients := 2 * replicas
	dur := *flagExecDur
	if *flagQuick {
		dur = 500 * time.Millisecond
	}
	buildTiny := func() (*graph.Network, error) {
		return graph.TinyVGG(feat, graph.RandomWeights{Seed: *flagSeed})
	}
	tiny, err := buildTiny()
	if err != nil {
		return err
	}
	tinyX := workload.RandTensor(workload.NewRNG(*flagSeed+2), tiny.InH, tiny.InW, tiny.InC)
	fmt.Printf("== closed-loop serving (TinyVGG): %d replicas × %d threads, %d clients, %s per config ==\n",
		replicas, threads, clients, dur)
	tl := bench.NewTable("dispatch", "clients", "images/s", "p50", "p99", "speedup")

	// Before: each replica spawns goroutines per layer (the old plumbing).
	spawnRate, sp50, sp99, err := runExecLoop(buildTiny, replicas, clients, tinyX, dur, func(int) *exec.Ctx {
		return spawnEC
	})
	if err != nil {
		return err
	}
	rep.ClosedLoop = append(rep.ClosedLoop, execLoopRow{
		Dispatch: "spawn-per-call", Clients: clients, Replicas: replicas, Threads: threads,
		ImagesPerSec: round2(spawnRate), P50Ms: round2(sp50), P99Ms: round2(sp99),
	})
	tl.Row("spawn-per-call", clients, round2(spawnRate), bench.Ms(msDur(sp50)), bench.Ms(msDur(sp99)), "-")

	// After: every replica dispatches onto the one shared pool.
	poolRate, pp50, pp99, err := runExecLoop(buildTiny, replicas, clients, tinyX, dur, func(int) *exec.Ctx {
		return pooledEC
	})
	if err != nil {
		return err
	}
	row := execLoopRow{
		Dispatch: "shared-pool", Clients: clients, Replicas: replicas, Threads: threads,
		ImagesPerSec: round2(poolRate), P50Ms: round2(pp50), P99Ms: round2(pp99),
		Speedup: round2(poolRate / spawnRate),
	}
	rep.ClosedLoop = append(rep.ClosedLoop, row)
	tl.Row("shared-pool", clients, row.ImagesPerSec, bench.Ms(msDur(pp50)), bench.Ms(msDur(pp99)),
		fmt.Sprintf("%.2fx", row.Speedup))
	tl.Render(os.Stdout)

	f, err := os.Create(*flagExecOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", *flagExecOut)
	return nil
}

// buildExecRunner materializes one BitFlow operator as a closure over an
// execution context — the dispatch-mode-agnostic form of opRunners.
func buildExecRunner(cfg workload.OpConfig, feat sched.Features, seed uint64) (func(*exec.Ctx), error) {
	r := workload.NewRNG(seed)
	switch cfg.Kind {
	case workload.OpConv:
		shape, err := sched.InferConv(cfg.H, cfg.W, cfg.C, cfg.K, cfg.KH, cfg.KW, cfg.Stride, cfg.Pad)
		if err != nil {
			return nil, err
		}
		plan := sched.Select(cfg.C, feat)
		cv, err := core.NewConv(shape, plan, workload.PM1Filter(r, cfg.K, cfg.KH, cfg.KW, cfg.C))
		if err != nil {
			return nil, err
		}
		packed := cv.NewInput()
		bitpack.PackTensorInto(workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C), packed)
		out := bitpack.NewPacked(shape.OutH, shape.OutW, cfg.K, sched.Select(cfg.K, feat).Words, 0, 0)
		return func(ec *exec.Ctx) { cv.ForwardPacked(packed, out, ec) }, nil

	case workload.OpFC:
		shape, err := sched.InferFC(cfg.N, cfg.K)
		if err != nil {
			return nil, err
		}
		plan := sched.Select(cfg.N, feat)
		d, err := core.NewDense(shape, plan, workload.PM1Matrix(r, cfg.N, cfg.K))
		if err != nil {
			return nil, err
		}
		packedIn := d.NewInput()
		inVals := make([]float32, cfg.N)
		for i := range inVals {
			inVals[i] = r.PM1()
		}
		bitpack.PackVectorInto(packedIn, inVals)
		out := make([]int32, cfg.K)
		return func(ec *exec.Ctx) { d.Forward(packedIn, out, ec) }, nil

	case workload.OpPool:
		shape, err := sched.InferPool(cfg.H, cfg.W, cfg.C, cfg.KH, cfg.KW, cfg.Stride)
		if err != nil {
			return nil, err
		}
		plan := sched.Select(cfg.C, feat)
		pl, err := core.NewPool(shape, plan.Words)
		if err != nil {
			return nil, err
		}
		packed := bitpack.PackTensor(workload.PM1Tensor(r, cfg.H, cfg.W, cfg.C), plan.Words, 0, 0)
		out := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, plan.Words, 0, 0)
		return func(ec *exec.Ctx) { pl.Forward(packed, out, ec) }, nil
	}
	return nil, fmt.Errorf("unknown op kind %v", cfg.Kind)
}

// measureEC is measure() for context-taking runners.
func measureEC(run func(*exec.Ctx), ec *exec.Ctx) time.Duration {
	return bench.Measure(*flagRuns, 50*time.Millisecond, func() { run(ec) })
}

// runExecLoop drives a closed loop against a pool of replicas whose
// dispatch mode is chosen by ecFor (index → context).
func runExecLoop(build func() (*graph.Network, error), replicas, clients int, x *tensor.Tensor, dur time.Duration, ecFor func(int) *exec.Ctx) (rate, p50, p99 float64, err error) {
	first, err := build()
	if err != nil {
		return 0, 0, 0, err
	}
	pool := make(chan *graph.Network, replicas)
	first.SetExec(ecFor(0))
	pool <- first
	for i := 1; i < replicas; i++ {
		c := first.Clone()
		c.SetExec(ecFor(i))
		pool <- c
	}
	return closedLoop(clients, dur, func(in *tensor.Tensor) error {
		n := <-pool
		_, ierr := n.InferChecked(in)
		pool <- n
		return ierr
	}, []*tensor.Tensor{x})
}

func ms(d time.Duration) float64 { return round2(float64(d) / float64(time.Millisecond)) }

// closedLoop runs `clients` goroutines issuing back-to-back requests for
// dur (after a short warm phase) and reports aggregate images/sec plus
// latency quantiles in milliseconds.
func closedLoop(clients int, dur time.Duration, do func(*tensor.Tensor) error, xs []*tensor.Tensor) (rate, p50, p99 float64, err error) {
	var stop atomic.Bool
	var warm atomic.Bool
	var count atomic.Int64
	var firstErr atomic.Value
	lats := make([][]time.Duration, clients)
	// The client loops cannot run on exec.Ctx.ParallelFor: its claim-loop
	// chunking would let one worker serialize several infinite client
	// bodies while the controller below still expects all of them
	// concurrently live until stop flips.
	//bitflow:go-ok closed-loop load generator needs one live goroutine per client for the full duration
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//bitflow:go-ok closed-loop load generator; see WaitGroup note above
		go func(c int) {
			defer wg.Done()
			i := c
			for !stop.Load() {
				x := xs[i%len(xs)]
				i++
				t0 := time.Now()
				if derr := do(x); derr != nil {
					firstErr.CompareAndSwap(nil, derr)
					return
				}
				if warm.Load() {
					lats[c] = append(lats[c], time.Since(t0))
					count.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(dur / 4) // warm phase: fill pipelines, settle schedulers
	warm.Store(true)
	t0 := time.Now()
	time.Sleep(dur)
	elapsed := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return 0, 0, 0, e.(error)
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return 0, 0, 0, fmt.Errorf("closed loop completed no requests")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) float64 {
		return float64(all[int(p*float64(len(all)-1))]) / float64(time.Millisecond)
	}
	return float64(count.Load()) / elapsed.Seconds(), q(0.50), q(0.99), nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }
