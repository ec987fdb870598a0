// The `autoscale` subcommand benchmarks the adaptive serving loop
// end-to-end and emits BENCH_autoscale.json: a live bitflow HTTP server
// (serve.ServeListener) is driven by closed-loop clients whose
// concurrency follows three load shapes — bursty (idle/flood cycles),
// diurnal (ramp up and back down), and adversarial (flap-inducing fast
// alternation). Each shape runs against three configurations:
//
//   - static-low:  1 unbatched replica — the right geometry for the
//     quiet phases, drowning in the bursts;
//   - static-high: max replicas with a wide batch — the right geometry
//     for the bursts, paying coalescing latency when idle;
//   - adaptive:    starts at the low geometry with -autoscale bounds
//     covering both, and must earn its keep by retuning live.
//
// The verdict per shape compares the adaptive loop's aggregate
// throughput against the better static config — the claim is that one
// adaptive configuration replaces per-shape hand tuning.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/serve"
	"bitflow/internal/workload"
)

var (
	flagAutoscaleOut  = flag.String("autoscale-out", "BENCH_autoscale.json", "output path for the `autoscale` subcommand report")
	flagAutoscaleUnit = flag.Duration("autoscale-unit", 1200*time.Millisecond, "duration of one load-shape phase unit")
)

// asPhase is one step of a load shape: hold `clients` closed-loop
// clients for `dur`.
type asPhase struct {
	clients int
	dur     time.Duration
}

// asShapes builds the three load shapes from the high-water client
// count and the phase unit.
func asShapes(hi int, unit time.Duration) map[string][]asPhase {
	mid := max(1, hi/2)
	low := max(1, hi/4)
	return map[string][]asPhase{
		"bursty": {
			{1, unit}, {hi, unit}, {1, unit}, {hi, unit}, {1, unit}, {hi, unit},
		},
		"diurnal": {
			{1, unit}, {low, unit}, {mid, unit}, {hi, unit}, {mid, unit}, {low, unit}, {1, unit},
		},
		"adversarial": {
			{hi, unit / 2}, {1, unit / 2}, {hi, unit / 2}, {1, unit / 2},
			{hi, unit / 2}, {1, unit / 2}, {hi, unit / 2}, {1, unit / 2},
		},
	}
}

type autoscaleRow struct {
	Shape        string  `json:"shape"`
	Config       string  `json:"config"`
	ImagesPerSec float64 `json:"images_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	Shed         int64   `json:"shed"`
	// Adaptive rows carry the controller's evidence: how often it
	// actuated and where the setpoints ended up.
	Actuations    int64  `json:"actuations,omitempty"`
	FinalState    string `json:"final_state,omitempty"`
	FinalReplicas int    `json:"final_replicas,omitempty"`
	FinalMaxBatch int    `json:"final_max_batch,omitempty"`
	FinalWindow   string `json:"final_window,omitempty"`
}

type autoscaleVerdict struct {
	Shape         string  `json:"shape"`
	BestStatic    string  `json:"best_static"`
	BestStaticIPS float64 `json:"best_static_images_per_sec"`
	AdaptiveIPS   float64 `json:"adaptive_images_per_sec"`
	// RatioVsBest ≥ 1 means the one adaptive config matched or beat the
	// better hand-picked static geometry for this shape.
	RatioVsBest float64 `json:"ratio_vs_best"`
}

type autoscaleReport struct {
	Features    string             `json:"features"`
	Cores       int                `json:"cores"`
	Network     string             `json:"network"`
	UnitSec     float64            `json:"phase_unit_sec"`
	MaxReplicas int                `json:"max_replicas"`
	HiClients   int                `json:"hi_clients"`
	Rows        []autoscaleRow     `json:"rows"`
	Verdicts    []autoscaleVerdict `json:"verdicts"`
}

// asConfig names one serving configuration under test.
type asConfig struct {
	name string
	cfg  serve.Config
}

func asConfigs(maxR int) []asConfig {
	return []asConfig{
		{"static-low", serve.Config{Replicas: 1}},
		{"static-high", serve.Config{
			Replicas: maxR, Batching: true, MaxBatch: 16, BatchWindow: 2 * time.Millisecond,
		}},
		{"adaptive", serve.Config{
			// Starts at the low geometry; the bounds cover everything the
			// static-high config has, so any throughput it reaches is
			// reachable here too — if the controller finds it.
			Replicas: 1, Batching: true, MaxBatch: 2, BatchWindow: time.Millisecond,
			Autoscale: &serve.AutoscaleConfig{
				Interval:    20 * time.Millisecond,
				MaxReplicas: maxR,
				MaxBatch:    16,
				MinWindow:   500 * time.Microsecond,
				MaxWindow:   4 * time.Millisecond,
				Cooldown:    2,
			},
		}},
	}
}

func runAutoscaleBench(feat sched.Features) error {
	net0, err := graph.TinyVGG(feat, graph.RandomWeights{Seed: *flagSeed})
	if err != nil {
		return err
	}
	maxR := max(2, min(4, bench.PhysicalCores()))
	hi := 4 * maxR
	unit := *flagAutoscaleUnit
	if *flagQuick {
		unit = 300 * time.Millisecond
	}

	// Pre-marshaled request bodies so the client loop measures the
	// server, not encoding.
	r := workload.NewRNG(*flagSeed + 1)
	bodies := make([][]byte, 8)
	for i := range bodies {
		x := workload.RandTensor(r, net0.InH, net0.InW, net0.InC)
		b, merr := json.Marshal(serve.InferRequest{Data: x.Data})
		if merr != nil {
			return merr
		}
		bodies[i] = b
	}

	rep := autoscaleReport{
		Features:    fmt.Sprint(feat),
		Cores:       bench.PhysicalCores(),
		Network:     net0.Name,
		UnitSec:     unit.Seconds(),
		MaxReplicas: maxR,
		HiClients:   hi,
	}
	shapes := asShapes(hi, unit)
	byShape := map[string]map[string]float64{} // shape -> config -> ips

	for _, shape := range []string{"bursty", "diurnal", "adversarial"} {
		fmt.Printf("== %s load: hi=%d clients, unit %s ==\n", shape, hi, unit)
		tb := bench.NewTable("config", "images/s", "p50", "p99", "shed", "actuations")
		byShape[shape] = map[string]float64{}
		for _, c := range asConfigs(maxR) {
			row, rerr := runAutoscaleShape(shape, shapes[shape], c, net0, bodies)
			if rerr != nil {
				return fmt.Errorf("%s/%s: %w", shape, c.name, rerr)
			}
			rep.Rows = append(rep.Rows, row)
			byShape[shape][c.name] = row.ImagesPerSec
			act := "-"
			if c.name == "adaptive" {
				act = fmt.Sprintf("%d (-> r=%d b=%d w=%s)", row.Actuations, row.FinalReplicas, row.FinalMaxBatch, row.FinalWindow)
			}
			tb.Row(c.name, row.ImagesPerSec, bench.Ms(msDur(row.P50Ms)), bench.Ms(msDur(row.P99Ms)), row.Shed, act)
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}

	for _, shape := range []string{"bursty", "diurnal", "adversarial"} {
		ips := byShape[shape]
		best, bestIPS := "static-low", ips["static-low"]
		if ips["static-high"] > bestIPS {
			best, bestIPS = "static-high", ips["static-high"]
		}
		v := autoscaleVerdict{
			Shape:         shape,
			BestStatic:    best,
			BestStaticIPS: round2(bestIPS),
			AdaptiveIPS:   round2(ips["adaptive"]),
			RatioVsBest:   round2(ips["adaptive"] / bestIPS),
		}
		rep.Verdicts = append(rep.Verdicts, v)
		fmt.Printf("%s: adaptive %.0f img/s vs best static (%s) %.0f img/s = %.2fx\n",
			shape, v.AdaptiveIPS, best, v.BestStaticIPS, v.RatioVsBest)
	}

	f, err := os.Create(*flagAutoscaleOut)
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
	fmt.Printf("\nwrote %s\n", *flagAutoscaleOut)
	return nil
}

// runAutoscaleShape serves a fresh clone of the network under cfg on a
// loopback listener, drives the shape's phases, and tears the server
// down cleanly.
func runAutoscaleShape(shape string, phases []asPhase, c asConfig, net0 *graph.Network, bodies [][]byte) (autoscaleRow, error) {
	row := autoscaleRow{Shape: shape, Config: c.name}
	srv := serve.NewWithConfig(net0.Clone(), c.cfg)
	if !srv.Ready() {
		return row, fmt.Errorf("server failed warm-up")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	baseURL := "http://" + l.Addr().String() + "/infer"
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	//bitflow:go-ok bench server lifecycle, joined via the served channel before return
	go func() {
		served <- srv.ServeListener(ctx, l, serve.HTTPConfig{ShutdownGrace: 10 * time.Second})
	}()

	httpc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}

	var total atomic.Int64
	var shed atomic.Int64
	var firstErr atomic.Value
	var mu sync.Mutex
	var lats []time.Duration
	start := time.Now()

	for _, ph := range phases {
		var wg sync.WaitGroup //bitflow:go-ok closed-loop HTTP load generator; one live goroutine per client for the phase
		stopPhase := make(chan struct{})
		for cl := 0; cl < ph.clients; cl++ {
			wg.Add(1)
			//bitflow:go-ok closed-loop HTTP load generator; see WaitGroup note above
			go func(cl int) {
				defer wg.Done()
				i := cl
				var local []time.Duration
				for {
					select {
					case <-stopPhase:
						mu.Lock()
						lats = append(lats, local...)
						mu.Unlock()
						return
					default:
					}
					body := bodies[i%len(bodies)]
					i++
					t0 := time.Now()
					resp, perr := httpc.Post(baseURL, "application/json", bytes.NewReader(body))
					if perr != nil {
						firstErr.CompareAndSwap(nil, perr)
						mu.Lock()
						lats = append(lats, local...)
						mu.Unlock()
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						local = append(local, time.Since(t0))
						total.Add(1)
					} else {
						shed.Add(1)
						time.Sleep(time.Millisecond) // honor shed back-pressure
					}
				}
			}(cl)
		}
		time.Sleep(ph.dur)
		close(stopPhase)
		wg.Wait()
		if e := firstErr.Load(); e != nil {
			stop()
			<-served
			return row, e.(error)
		}
	}
	elapsed := time.Since(start)

	if c.cfg.Autoscale != nil {
		for _, name := range srv.Models() {
			if st := srv.ControlStatus(name); st != nil {
				row.Actuations = st.Actuations
				row.FinalState = st.State
				row.FinalReplicas = st.Setpoints.Replicas
				row.FinalMaxBatch = st.Setpoints.MaxBatch
				row.FinalWindow = st.Setpoints.Window
			}
		}
	}
	stop()
	if err := <-served; err != nil {
		return row, fmt.Errorf("drain: %w", err)
	}

	if len(lats) == 0 {
		return row, fmt.Errorf("no requests completed")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))]) / float64(time.Millisecond)
	}
	row.ImagesPerSec = round2(float64(total.Load()) / elapsed.Seconds())
	row.P50Ms = round2(q(0.50))
	row.P99Ms = round2(q(0.99))
	row.Shed = shed.Load()
	return row, nil
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
