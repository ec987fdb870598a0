// Command bitflow-serve exposes BitFlow models over HTTP:
//
//	bitflow-train -out model.bflw
//	bitflow-serve -load model.bflw -addr :8080 -replicas 4
//	curl -s localhost:8080/model
//	curl -s -X POST localhost:8080/infer -d '{"data":[...]}'
//	curl -s localhost:8080/statusz
//
// Without -load it serves a demo TinyVGG with random weights.
//
// Multi-model serving takes a JSON manifest instead:
//
//	bitflow-serve -models manifest.json -admin-addr 127.0.0.1:8081
//	curl -s -X POST localhost:8080/v1/models/resnet/infer -d '{"data":[...]}'
//	kill -HUP $(pidof bitflow-serve)   # re-read manifest, hot-swap changed models
//	curl -s -X POST -d '{"model":"resnet","path":"new.bflw"}' 127.0.0.1:8081/admin/reload
//
// Each manifest entry names a model, its artifact path, and its QoS
// envelope (replicas, queue bound, deadline, batching). SIGHUP re-reads
// the manifest and hot-reloads every entry whose path or version
// changed, through the verify-then-flip swap protocol: a candidate that
// fails checksum, decode, warm-up, or the probe self-check is rolled
// back and the old version keeps serving. The admin endpoints (reload,
// model ledger) bind separately via -admin-addr so they are never
// exposed on the inference port.
//
// The server sheds load once a model's queue bound is hit (429) or a
// request's deadline expires in the queue (503), and drains in-flight
// requests for -shutdown-grace after SIGINT/SIGTERM. Shed responses
// carry a Retry-After derived from the live queue depth and observed
// service rate.
//
// -autoscale turns the static QoS envelope into the starting point of a
// per-model control loop that retunes batch window, max-batch, and
// replica count within the -autoscale-* bounds (see /statusz's control
// section for the live setpoints and decision ledger; pin setpoints via
// POST /admin/autoscale on -admin-addr).
//
// Loaded models run the fused conv+pool data-flow plan (see DESIGN.md
// §11): a conv followed by an eligible max-pool is one layer whose
// threshold bits OR straight into the pooled output. The startup banner
// reports the fused pair count per model, and /model exposes it as
// "fused_layers". The benchmark's graph.fusion_gain measures the plan
// against its unfused twin (`go run ./benchmark`).
//
// Thread sizing: all replicas dispatch onto ONE persistent worker pool of
// -threads-total workers, and each inference uses at most -threads of
// them. When replicas × -threads exceeds the machine's cores the server
// warns and clamps -threads so concurrent replicas cannot oversubscribe
// (disable with -allow-oversubscribe). With batching, a replica's forward
// pass carries up to max-batch requests, so fewer replicas with more
// threads each is usually the right trade — batching raises per-pass
// work, not pass concurrency.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/sched"
	"bitflow/internal/serve"
)

var (
	flagLoad   = flag.String("load", "", "packed model file (default: demo TinyVGG; exclusive with -models)")
	flagModels = flag.String("models", "", "multi-model JSON manifest (exclusive with -load); SIGHUP re-reads it")
	flagAddr   = flag.String("addr", ":8080", "listen address")
	flagAdmin  = flag.String("admin-addr", "", "admin listen address for /admin/reload and /admin/models (default: admin API off)")

	flagReplicas = flag.Int("replicas", bench.PhysicalCores(), "network clones for concurrent requests (per model unless the manifest overrides)")
	flagThreads  = flag.Int("threads", 1, "worker threads per inference")

	flagThreadsTotal = flag.Int("threads-total", runtime.NumCPU(),
		"process-wide worker-pool size shared by all replicas")
	flagAllowOversub = flag.Bool("allow-oversubscribe", false,
		"skip clamping -threads when replicas×threads exceeds the core count")

	flagBatch       = flag.Bool("batch", false, "enable dynamic micro-batching (trades up to -batch-window of latency for throughput)")
	flagBatchWindow = flag.Duration("batch-window", 2*time.Millisecond, "max wait for a batch to fill before dispatching (with -batch)")
	flagMaxBatch    = flag.Int("max-batch", 8, "max requests coalesced into one forward pass (with -batch)")

	flagMaxQueue       = flag.Int("max-queue", 0, "max requests waiting for a replica before shedding with 429 (0 = 4×replicas, min 16)")
	flagRequestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline; expired queued requests get 503")
	flagShutdownGrace  = flag.Duration("shutdown-grace", 15*time.Second, "drain window for in-flight requests after SIGTERM")
	flagReadTimeout    = flag.Duration("read-timeout", 30*time.Second, "HTTP read deadline")
	flagIdleTimeout    = flag.Duration("idle-timeout", 120*time.Second, "HTTP keep-alive idle limit")
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bitflow-serve: "+format+"\n", args...)
	os.Exit(1)
}

// flagConfig is the QoS envelope the command-line flags describe; in
// manifest mode it is the baseline each entry's zero fields fall back to.
func flagConfig(ex *exec.Ctx) serve.Config {
	return serve.Config{
		Replicas:       *flagReplicas,
		MaxQueue:       *flagMaxQueue,
		RequestTimeout: *flagRequestTimeout,
		Batching:       *flagBatch,
		BatchWindow:    *flagBatchWindow,
		MaxBatch:       *flagMaxBatch,
		Autoscale:      autoscaleConfig(),
		Exec:           ex,
	}
}

// entryConfig maps one manifest entry onto serve.Config, deferring zero
// fields to the flag baseline.
func entryConfig(e registry.ManifestEntry, base serve.Config) serve.Config {
	cfg := base
	if e.Replicas > 0 {
		cfg.Replicas = e.Replicas
	}
	if e.MaxQueue > 0 {
		cfg.MaxQueue = e.MaxQueue
	}
	if e.RequestTimeout > 0 {
		cfg.RequestTimeout = time.Duration(e.RequestTimeout)
	}
	if e.Batch {
		cfg.Batching = true
	}
	if e.BatchWindow > 0 {
		cfg.BatchWindow = time.Duration(e.BatchWindow)
	}
	if e.MaxBatch > 0 {
		cfg.MaxBatch = e.MaxBatch
	}
	return cfg
}

// clampThreads applies the oversubscription guard against the widest
// model's replica count (replica sets of different models share the one
// dispatch pool, which already bounds true parallelism).
func clampThreads(threads, maxReplicas int) int {
	if *flagAllowOversub {
		return threads
	}
	clamped, did := exec.ClampThreads(threads, maxReplicas, runtime.NumCPU())
	if did {
		fmt.Fprintf(os.Stderr,
			"bitflow-serve: %d replicas × %d threads oversubscribes %d cores; clamping -threads to %d (use -allow-oversubscribe to keep %d)\n",
			maxReplicas, threads, runtime.NumCPU(), clamped, threads)
	}
	return clamped
}

// reloadTimeout bounds one swap: verification plus draining the old
// replica set, which waits on in-flight requests.
func reloadTimeout() time.Duration {
	return *flagRequestTimeout + *flagShutdownGrace + 15*time.Second
}

// applyManifest hot-reloads every served model whose manifest entry's
// path or version changed since prev. It returns the entries now in
// effect and logs per-model outcomes; a failed swap rolls back and
// keeps the previous entry so the next SIGHUP retries it.
func applyManifest(srv *serve.Server, man *registry.Manifest, prev map[string]registry.ManifestEntry, feat sched.Features) map[string]registry.ManifestEntry {
	next := make(map[string]registry.ManifestEntry, len(prev))
	for name, e := range prev {
		next[name] = e
	}
	for _, e := range man.Models {
		old, served := prev[e.Name]
		if !served {
			fmt.Fprintf(os.Stderr, "bitflow-serve: manifest: model %q not served (adding models needs a restart); skipping\n", e.Name)
			continue
		}
		if old.Path == e.Path && old.Version == e.Version {
			continue
		}
		art, err := registry.LoadArtifact(e.Path, e.Version, feat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bitflow-serve: reload %s: %v\n", e.Name, err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), reloadTimeout())
		st, err := srv.ReloadModel(ctx, e.Name, art)
		cancel()
		if err != nil {
			if st != nil {
				fmt.Fprintf(os.Stderr, "bitflow-serve: reload %s: rolled back at %s stage: %v\n", e.Name, st.Stage, err)
			} else {
				fmt.Fprintf(os.Stderr, "bitflow-serve: reload %s: %v\n", e.Name, err)
			}
			continue
		}
		fmt.Printf("bitflow-serve: reload %s: %s -> %s (%s)\n", e.Name, st.From, st.To, st.Took)
		next[e.Name] = e
	}
	return next
}

func main() {
	flag.Parse()
	feat := sched.Detect()
	if *flagLoad != "" && *flagModels != "" {
		fatalf("-load and -models are mutually exclusive")
	}
	if err := validateFlags(currentFlagValues(), explicitFlags()); err != nil {
		fatalf("%v", err)
	}

	// One process-wide pool for every replica of every model;
	// per-inference budget clamped so concurrent replicas cannot
	// oversubscribe the cores.
	pool := exec.NewPool(*flagThreadsTotal)
	pool.SetSource("-threads-total")

	var (
		srv     *serve.Server
		served  map[string]registry.ManifestEntry // manifest mode: entries in effect
		threads = *flagThreads
	)
	if *flagModels != "" {
		man, err := registry.LoadManifest(*flagModels)
		if err != nil {
			fatalf("%v", err)
		}
		maxReplicas := *flagReplicas
		for _, e := range man.Models {
			if e.Replicas > maxReplicas {
				maxReplicas = e.Replicas
			}
		}
		threads = clampThreads(threads, effectiveMaxReplicas(maxReplicas))
		base := flagConfig(exec.Pooled(pool, threads))
		specs := make([]serve.ModelSpec, 0, len(man.Models))
		served = make(map[string]registry.ManifestEntry, len(man.Models))
		for _, e := range man.Models {
			art, err := registry.LoadArtifact(e.Path, e.Version, feat)
			if err != nil {
				fatalf("%v", err)
			}
			specs = append(specs, serve.ModelSpec{
				Name:    e.Name,
				Net:     art.Net,
				Version: art.Version,
				Cfg:     entryConfig(e, base),
				Default: e.Default,
			})
			served[e.Name] = e
		}
		srv, err = serve.NewMulti(specs)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		var (
			net *graph.Network
			err error
		)
		if *flagLoad != "" {
			f, ferr := os.Open(*flagLoad)
			if ferr != nil {
				fatalf("%v", ferr)
			}
			net, err = graph.Load(f, feat)
			f.Close()
		} else {
			net, err = graph.TinyVGG(feat, graph.RandomWeights{Seed: 1})
		}
		if err != nil {
			fatalf("%v", err)
		}
		threads = clampThreads(threads, effectiveMaxReplicas(*flagReplicas))
		srv = serve.NewWithConfig(net, flagConfig(exec.Pooled(pool, threads)))
	}
	if !srv.Ready() {
		fmt.Fprintln(os.Stderr, "bitflow-serve: warm-up inference failed; serving anyway, /readyz stays 503")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads the manifest and hot-swaps changed models without
	// dropping requests. Meaningless (and ignored) in single-model mode.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	//bitflow:go-ok process-lifetime signal listener, not inference fan-out
	go func() {
		for range hup {
			if *flagModels == "" {
				fmt.Fprintln(os.Stderr, "bitflow-serve: SIGHUP ignored (no -models manifest)")
				continue
			}
			man, err := registry.LoadManifest(*flagModels)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bitflow-serve: SIGHUP: %v (keeping current models)\n", err)
				continue
			}
			served = applyManifest(srv, man, served, feat)
		}
	}()
	defer signal.Stop(hup)

	// The admin API binds its own address so reload control is never
	// reachable through the inference port.
	if *flagAdmin != "" {
		admin := &http.Server{
			Addr: *flagAdmin,
			Handler: srv.AdminHandler(func(path, version string) (*registry.Artifact, error) {
				return registry.LoadArtifact(path, version, feat)
			}),
			ReadTimeout: *flagReadTimeout,
			IdleTimeout: *flagIdleTimeout,
		}
		//bitflow:go-ok second http.Server needs its own accept loop
		go func() {
			fmt.Printf("admin API on %s (/admin/reload, /admin/models)\n", *flagAdmin)
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "bitflow-serve: admin: %v\n", err)
			}
		}()
		defer admin.Close()
	}

	for _, name := range srv.Models() {
		ins, err := srv.IntrospectModel(name)
		if err != nil {
			continue
		}
		fmt.Printf("serving model %q version %s on %s with %d replica(s), queue %d\n",
			name, ins.Version, *flagAddr, ins.Replicas, ins.GateMaxQueue)
		if mm, err := srv.ModelMeta(name); err == nil {
			if mm.FusedLayers > 0 {
				fmt.Printf("fusion %q: %d conv+pool pair(s) run as fused packed-bit epilogues\n",
					name, mm.FusedLayers)
			}
			if mm.CompressedLayers > 0 {
				fmt.Printf("kernel compression %q: %d layer(s) dedupe repeated packed filter words\n",
					name, mm.CompressedLayers)
			}
		}
		if st := srv.ControlStatus(name); st != nil {
			fmt.Printf("autoscale %q: replicas [%d, %d], max-batch [%d, %d], window [%s, %s]\n",
				name, st.Bounds.MinReplicas, st.Bounds.MaxReplicas,
				st.Bounds.MinBatch, st.Bounds.MaxBatch, st.Bounds.MinWindow, st.Bounds.MaxWindow)
		}
	}
	rep := pool.Report()
	fmt.Printf("exec pool: %d worker(s) (%s), %d thread(s)/inference, GOMAXPROCS %d, %d CPU(s)\n",
		rep.Workers, rep.Source, threads, rep.GOMAXPROCS, rep.NumCPU)

	err := srv.ListenAndServe(ctx, serve.HTTPConfig{
		Addr:          *flagAddr,
		ReadTimeout:   *flagReadTimeout,
		IdleTimeout:   *flagIdleTimeout,
		ShutdownGrace: *flagShutdownGrace,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println("bitflow-serve: drained, bye")
}
