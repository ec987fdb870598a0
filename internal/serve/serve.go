// Package serve exposes compiled BitFlow networks over HTTP — the
// "deployment in practical applications" the paper's stand-alone engine
// targets (§IV). The server hosts one or more named models, each a pool
// of network clones (Infer is not concurrency-safe on one instance)
// behind its own admission gate, and serves:
//
//	GET  /healthz  → 200 "ok" (liveness alias, kept for compatibility)
//	GET  /livez    → 200 while the process is up
//	GET  /readyz   → JSON per-model readiness; 503 while any model is
//	                 unready or the server drains
//	GET  /statusz  → JSON counters: requests, shed, panics, queue,
//	                 p50/p99, plus a per-model section with reload state
//	GET  /model    → default model's metadata (name, dims, classes, sizes)
//	POST /infer    → {"data":[...]} (NHWC floats) → logits + argmax
//	GET  /v1/models                 → list of served models
//	GET  /v1/models/{model}         → one model's metadata
//	POST /v1/models/{model}/infer   → /infer, routed by name
//
// Robustness contract: every infer request either completes within its
// deadline or fails fast with a typed error — the wait queue is bounded
// (429 when full, 503 when the deadline expires while queued, both with
// Retry-After), a panicking replica is recovered and re-cloned so
// capacity never shrinks, and shutdown drains in-flight requests.
// Models hot-reload atomically (see ReloadModel): a request pins one
// version for its lifetime, and a failed reload rolls back without the
// old version ever missing a beat.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/faultinject"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/resilience"
	"bitflow/internal/tensor"
)

// Config tunes one model's serving resilience layer. The zero value of
// any field selects a sensible default.
type Config struct {
	// Replicas is the number of network clones (concurrent inferences).
	// Minimum 1.
	Replicas int
	// MaxQueue bounds how many requests may wait for a free replica
	// before new arrivals are shed with 429. Default max(16, 4×Replicas).
	MaxQueue int
	// RequestTimeout is the per-request deadline covering queue wait.
	// A request still queued when it expires is shed with 503.
	// Default 30s.
	RequestTimeout time.Duration

	// Exec is the base execution context attached to every replica: the
	// shared dispatch pool plus the per-inference thread budget. All
	// replicas dispatch onto this one context, so total parallelism is
	// bounded by its pool no matter how many replicas run. nil runs every
	// inference serially on its request goroutine (exec.Serial()).
	Exec *exec.Ctx
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.Replicas
		if c.MaxQueue < 16 {
			c.MaxQueue = 16
		}
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// backend is the inference surface the pool manages. graph.Network is the
// production implementation; tests substitute panicking or slow backends
// to exercise the failure paths. infer receives the per-request context
// so cancellation and deadlines propagate into the forward pass.
type backend interface {
	infer(ctx context.Context, x *tensor.Tensor) ([]float32, error)
	clone() backend
}

// execAttacher marks backends that accept an execution context. The
// server attaches one base context (pool + budget + metrics observer)
// to the first backend before warm-up; clones inherit it, so every
// replica shares the same pool and feeds the same layer stats.
type execAttacher interface {
	attachExec(base *exec.Ctx, obs exec.Observer) *exec.Ctx
}

type netBackend struct{ net *graph.Network }

func (b netBackend) infer(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	return b.net.InferContext(ctx, x)
}
func (b netBackend) clone() backend { return netBackend{net: b.net.Clone()} }

func (b netBackend) attachExec(base *exec.Ctx, obs exec.Observer) *exec.Ctx {
	if base == nil {
		base = exec.Serial()
	}
	ec := base.WithObserver(obs)
	b.net.SetExec(ec)
	return ec
}

// Server hosts named models behind one HTTP handler. Each model owns
// its admission gate, metrics, and versioned replica sets (hot reload);
// the legacy single-model endpoints route to the default model.
type Server struct {
	byName  map[string]*model
	order   []*model
	def     *model
	started time.Time

	// draining flips once shutdown begins: /readyz fails and new infer
	// requests are refused while in-flight ones finish.
	draining atomic.Bool
}

// Meta is the /model response.
type Meta struct {
	Name        string `json:"name"`
	InputH      int    `json:"input_h"`
	InputW      int    `json:"input_w"`
	InputC      int    `json:"input_c"`
	Classes     int    `json:"classes"`
	Layers      int    `json:"layers"`
	FusedLayers int    `json:"fused_layers"`
	// CompressedLayers counts conv layers whose forward sweeps only
	// their distinct filters (kernel compression), as found at load time.
	CompressedLayers int     `json:"compressed_layers"`
	Weights          int64   `json:"weights"`
	PackedBytes      int64   `json:"packed_bytes"`
	CompressionRate  float64 `json:"compression"`
	Replicas         int     `json:"replicas"`
}

// InferRequest is the /infer request body.
type InferRequest struct {
	// Data is the NHWC-flattened input, length InputH*InputW*InputC.
	Data []float32 `json:"data"`
}

// InferResponse is the /infer response body.
type InferResponse struct {
	Logits  []float32 `json:"logits"`
	Class   int       `json:"class"`
	Elapsed string    `json:"elapsed"`
}

// ErrorResponse is the body of every non-2xx JSON reply, so clients can
// switch on a stable machine-readable code rather than parse messages.
// Codes: bad_request, queue_full, deadline, panic, not_ready,
// unknown_model.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Statusz is the /statusz response: identity, capacity, and the failure
// counters that make robustness measurable. The top-level fields
// describe the default model (back-compat with single-model clients);
// Models carries the per-model sections.
type Statusz struct {
	Model             string                 `json:"model"`
	Version           string                 `json:"version"`
	Uptime            string                 `json:"uptime"`
	UptimeSeconds     float64                `json:"uptime_seconds"`
	Ready             bool                   `json:"ready"`
	Replicas          int                    `json:"replicas"`
	ReplicasAvailable int                    `json:"replicas_available"`
	MaxQueue          int                    `json:"max_queue"`
	RequestTimeout    string                 `json:"request_timeout"`
	Exec              *ExecStatus            `json:"exec,omitempty"`
	Metrics           resilience.Snapshot    `json:"metrics"`
	Models            map[string]ModelStatus `json:"models"`
}

// ModelStatus is one model's /statusz section: capacity, readiness, and
// the reload ledger (version, swap/rollback counts, last attempt).
type ModelStatus struct {
	Name              string                 `json:"name"`
	Version           string                 `json:"version"`
	Ready             bool                   `json:"ready"`
	Default           bool                   `json:"default,omitempty"`
	Replicas          int                    `json:"replicas"`
	ReplicasAvailable int                    `json:"replicas_available"`
	MaxQueue          int                    `json:"max_queue"`
	RequestTimeout    string                 `json:"request_timeout"`
	Swaps             int64                  `json:"swaps"`
	Rollbacks         int64                  `json:"rollbacks"`
	LastReload        *registry.ReloadStatus `json:"last_reload,omitempty"`
	Metrics           resilience.Snapshot    `json:"metrics"`
}

// ExecStatus is the /statusz execution-layer section: the shared pool's
// configuration and occupancy plus the per-inference thread budget every
// replica dispatches with. Per-layer p50/p99 live under metrics.layers.
type ExecStatus struct {
	exec.Report
	// Budget is the per-inference thread budget (callers included).
	Budget int `json:"budget"`
}

// ReadyStatus is the /readyz response: overall readiness plus each
// model's state. A model mid-reload stays ready — it serves its old
// version until the swap's atomic flip.
type ReadyStatus struct {
	Ready    bool                  `json:"ready"`
	Draining bool                  `json:"draining,omitempty"`
	Models   map[string]ModelReady `json:"models"`
}

// ModelReady is one model's readiness line in /readyz.
type ModelReady struct {
	Ready   bool   `json:"ready"`
	Version string `json:"version"`
}

// ModelInfo is one entry of the GET /v1/models listing.
type ModelInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	Ready   bool   `json:"ready"`
	Default bool   `json:"default,omitempty"`
}

// NewWithConfig builds a single-model server with explicit resilience
// settings and runs the warm-up inference that arms /readyz.
func NewWithConfig(net *graph.Network, cfg Config) *Server {
	return newServer(metaFromNetwork(net), netBackend{net: net}, cfg)
}

// newServer wires a single-model server around the first backend,
// cloning it out to the configured replica count. Split from
// NewWithConfig so tests can inject faulty backends.
func newServer(meta Meta, first backend, cfg Config) *Server {
	s := &Server{
		byName:  map[string]*model{},
		started: time.Now(),
	}
	m, err := s.addModel(meta.Name, "boot", meta, first, cfg)
	if err != nil {
		// addModel only fails on a duplicate name, which a fresh
		// single-model server cannot have.
		panic(fmt.Sprintf("serve: building server: %v", err))
	}
	m.isDefault = true
	s.def = m
	return s
}

// Metrics exposes the default model's failure counters (shared with
// /statusz) so embedding code — tests, the bench harness — can assert on
// them. Use ModelMetrics for a named model.
func (s *Server) Metrics() *resilience.Metrics { return s.def.rm.Metrics() }

// Introspection is a point-in-time view of one model's conservation
// state, read by the fault-injection conformance oracle: on a quiet
// server, held and waiting must be zero and every replica must be back in
// the pool — regardless of what fault schedule just ran.
type Introspection struct {
	Model         string
	Version       string
	GateHeld      int64
	GateWaiting   int64
	GateCapacity  int
	GateMaxQueue  int
	PoolAvailable int
	Replicas      int
}

// Introspect snapshots the default model's admission gate and replica
// pool. The fields are sampled sequentially, so only a quiesced server
// yields a consistent picture — exactly the oracle's use case.
func (s *Server) Introspect() Introspection {
	in, _ := s.IntrospectModel("")
	return in
}

// Ready reports whether the default model warmed up and the server is
// not draining.
func (s *Server) Ready() bool { return s.def.ready.Load() && !s.draining.Load() }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleLive)
	mux.HandleFunc("/livez", s.handleLive)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/model", s.handleModel)
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/models/{model}", s.handleModelInfo)
	mux.HandleFunc("/v1/models/{model}/infer", s.handleModelInfer)
	return mux
}

func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := ReadyStatus{Ready: true, Draining: s.draining.Load(), Models: map[string]ModelReady{}}
	for _, m := range s.order {
		ready := m.ready.Load()
		st.Models[m.name] = ModelReady{Ready: ready, Version: m.rm.Version()}
		if !ready {
			st.Ready = false
		}
	}
	if st.Draining {
		st.Ready = false
	}
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, st)
}

func (s *Server) modelStatus(m *model) ModelStatus {
	metrics := m.rm.Metrics()
	metrics.QueueDepth.Store(m.rm.Gate().Waiting())
	metrics.InFlight.Store(m.rm.Gate().Held())
	snap := metrics.Snapshot()
	ms := ModelStatus{
		Name:           m.name,
		Version:        m.rm.Version(),
		Ready:          m.ready.Load(),
		Default:        m.isDefault,
		Replicas:       m.cfg.Replicas,
		MaxQueue:       m.cfg.MaxQueue,
		RequestTimeout: m.cfg.RequestTimeout.String(),
		Swaps:          m.rm.Swaps(),
		Rollbacks:      m.rm.Rollbacks(),
		LastReload:     m.rm.LastReload(),
		Metrics:        snap,
	}
	if rs := m.currentSet(); rs != nil {
		ms.ReplicasAvailable = len(rs.pool)
	}
	return ms
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	models := make(map[string]ModelStatus, len(s.order))
	for _, m := range s.order {
		models[m.name] = s.modelStatus(m)
	}
	def := models[s.def.name]
	st := Statusz{
		Model:             def.Name,
		Version:           def.Version,
		Uptime:            time.Since(s.started).Round(time.Millisecond).String(),
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Ready:             s.Ready(),
		Replicas:          def.Replicas,
		ReplicasAvailable: def.ReplicasAvailable,
		MaxQueue:          def.MaxQueue,
		RequestTimeout:    def.RequestTimeout,
		Metrics:           def.Metrics,
		Models:            models,
	}
	if rs := s.def.currentSet(); rs != nil && rs.exec != nil {
		es := &ExecStatus{Budget: rs.exec.Budget()}
		if p := rs.exec.Pool(); p != nil {
			es.Report = p.Report()
		} else {
			es.Report = exec.Report{Source: "serial"}
		}
		st.Exec = es
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	s.modelInfo(w, r, s.def)
}

func (s *Server) modelInfo(w http.ResponseWriter, r *http.Request, m *model) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "GET required")
		return
	}
	meta := m.meta
	if rs := m.currentSet(); rs != nil {
		meta = rs.meta
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "GET required")
		return
	}
	infos := make([]ModelInfo, len(s.order))
	for i, m := range s.order {
		infos[i] = ModelInfo{
			Name:    m.name,
			Version: m.rm.Version(),
			Ready:   m.ready.Load(),
			Default: m.isDefault,
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Models []ModelInfo `json:"models"`
	}{infos})
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	m, ok := s.byName[r.PathValue("model")]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_model",
			fmt.Sprintf("unknown model %q", r.PathValue("model")))
		return
	}
	s.modelInfo(w, r, m)
}

func (s *Server) handleModelInfer(w http.ResponseWriter, r *http.Request) {
	m, ok := s.byName[r.PathValue("model")]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_model",
			fmt.Sprintf("unknown model %q", r.PathValue("model")))
		return
	}
	s.infer(w, r, m)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	s.infer(w, r, s.def)
}

// infer serves one request against model m. The request pins exactly one
// version of the model for its lifetime: a hot reload mid-request leaves
// it running (and returning its replica) on the version it started on.
func (s *Server) infer(w http.ResponseWriter, r *http.Request, m *model) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "POST required")
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, "application/json") {
		writeError(w, http.StatusUnsupportedMediaType, "bad_request",
			fmt.Sprintf("Content-Type %q not supported; use application/json", ct))
		return
	}
	metrics := m.rm.Metrics()
	metrics.Requests.Add(1)

	// Draining does NOT gate here: hs.Shutdown already refuses new
	// connections, and requests arriving on accepted ones deserve to
	// finish — that is what graceful drain means. Only a model whose
	// warm-up failed refuses traffic.
	if !m.ready.Load() {
		metrics.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			fmt.Sprintf("model %q failed warm-up and is not serving", m.name))
		return
	}

	var req InferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		metrics.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request: %v", err))
		return
	}
	want := m.meta.InputH * m.meta.InputW * m.meta.InputC
	if len(req.Data) != want {
		metrics.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("input has %d values, model wants %d (%dx%dx%d NHWC)",
				len(req.Data), want, m.meta.InputH, m.meta.InputW, m.meta.InputC))
		return
	}
	if err := validateFinite(req.Data); err != nil {
		metrics.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	//bitflow:panic-ok FromSlice only panics on a length mismatch, ruled out by the check above
	x := tensor.FromSlice(m.meta.InputH, m.meta.InputW, m.meta.InputC, req.Data)

	// Admission: wait for a slot inside the bounded queue, giving up
	// when the per-request deadline (or the client) expires.
	ctx, cancel := context.WithTimeout(r.Context(), m.cfg.RequestTimeout)
	defer cancel()
	// serve.admit only delays (Sleep/Stall widen queue-pressure races); any
	// resulting deadline surfaces through gate.Acquire below.
	_ = faultinject.ServeAdmit.Fire(ctx, m.name, 0)
	gate := m.rm.Gate()
	if err := gate.Acquire(ctx); err != nil {
		metrics.Shed.Add(1)
		// Both outcomes are congestion, so Retry-After is derived from the
		// live queue depth and the observed service rate, not a constant.
		switch {
		case errors.Is(err, resilience.ErrQueueFull):
			w.Header().Set("Retry-After", retryAfter(m))
			writeError(w, http.StatusTooManyRequests, "queue_full",
				fmt.Sprintf("admission queue full (%d waiting, %d allowed); retry later",
					gate.Waiting(), m.cfg.MaxQueue))
		default: // deadline expired or client went away while queued
			w.Header().Set("Retry-After", retryAfter(m))
			writeError(w, http.StatusServiceUnavailable, "deadline",
				fmt.Sprintf("deadline expired after %s waiting for a replica", m.cfg.RequestTimeout))
		}
		return
	}
	//bitflow:panic-ok Release pairs with the successful Acquire above; its panic is a misuse guard, not a request-reachable state
	defer gate.Release()

	// Pin the current version: the release (deferred before any replica
	// restore below, so it runs after) is what a draining old version
	// waits on before its replicas are retired.
	pin := m.rm.Acquire()
	defer pin.Release()
	rs, ok := pin.Set().(*replicaSet)
	if !ok {
		// Only reachable if an embedder registered a foreign ReplicaSet.
		metrics.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			fmt.Sprintf("model %q has no serving replica set", m.name))
		return
	}

	// The gate guarantees a replica is free: slot holders hold at most one
	// replica and always return one (re-cloned after a panic) on exit.
	b := <-rs.pool
	restore := b
	defer func() { rs.pool <- restore }()

	t0 := time.Now()
	var (
		logits   []float32
		inferErr error
	)
	panicErr := resilience.Safe(func() { logits, inferErr = b.infer(ctx, x) })
	elapsed := time.Since(t0)

	if panicErr != nil {
		// The replica's activation buffers may be corrupted mid-forward;
		// rebuild them from the shared read-only weights so one bad
		// request can never shrink pool capacity. If even cloning fails,
		// fall back to returning the original replica — degraded beats
		// leaking the slot.
		metrics.PanicsRecovered.Add(1)
		if cloneErr := resilience.Safe(func() {
			_ = faultinject.ServeClone.Fire(nil, m.name, 0)
			restore = b.clone()
		}); cloneErr != nil {
			restore = b
		}
		writeError(w, http.StatusInternalServerError, "panic",
			fmt.Sprintf("inference failed: %v", panicErr))
		return
	}
	if inferErr != nil {
		// A pass abandoned at a layer boundary (deadline or client gone)
		// is load, not a malformed request: 503 with Retry-After, same
		// taxonomy as a deadline that expires in the queue.
		if errors.Is(inferErr, context.DeadlineExceeded) || errors.Is(inferErr, context.Canceled) {
			metrics.Shed.Add(1)
			w.Header().Set("Retry-After", retryAfter(m))
			writeError(w, http.StatusServiceUnavailable, "deadline",
				fmt.Sprintf("request cancelled mid-inference: %v", inferErr))
			return
		}
		metrics.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", inferErr.Error())
		return
	}

	metrics.OK.Add(1)
	metrics.ObserveLatency(elapsed)

	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	writeJSON(w, http.StatusOK, InferResponse{
		Logits:  logits,
		Class:   best,
		Elapsed: elapsed.String(),
	})
}

// ---------------------------------------------------------------------
// Lifecycle: a real http.Server with timeouts and graceful shutdown.

// HTTPConfig tunes the HTTP shell around the handler. Zero fields select
// defaults sized so a healthy request never trips a server timeout.
type HTTPConfig struct {
	Addr          string        // listen address, e.g. ":8080"
	ReadTimeout   time.Duration // full-request read deadline (default 30s)
	WriteTimeout  time.Duration // response write deadline (default RequestTimeout+30s)
	IdleTimeout   time.Duration // keep-alive idle limit (default 120s)
	ShutdownGrace time.Duration // drain window after SIGTERM/ctx-done (default 15s)
}

func (hc HTTPConfig) withDefaults(reqTimeout time.Duration) HTTPConfig {
	if hc.ReadTimeout <= 0 {
		hc.ReadTimeout = 30 * time.Second
	}
	if hc.WriteTimeout <= 0 {
		hc.WriteTimeout = reqTimeout + 30*time.Second
	}
	if hc.IdleTimeout <= 0 {
		hc.IdleTimeout = 120 * time.Second
	}
	if hc.ShutdownGrace <= 0 {
		hc.ShutdownGrace = 15 * time.Second
	}
	return hc
}

// ListenAndServe runs the server until ctx is cancelled (wire ctx to
// SIGTERM for Kubernetes-style termination), then drains: /readyz starts
// failing so load balancers stop sending traffic, in-flight requests get
// ShutdownGrace to finish, and only then does the listener close. Returns
// nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, hc HTTPConfig) error {
	l, err := net.Listen("tcp", hc.Addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, l, hc)
}

// ServeListener is ListenAndServe on an existing listener (tests use a
// 127.0.0.1:0 listener). The listener is closed when serving stops.
func (s *Server) ServeListener(ctx context.Context, l net.Listener, hc HTTPConfig) error {
	hc = hc.withDefaults(s.def.cfg.RequestTimeout)
	hs := &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  hc.ReadTimeout,
		WriteTimeout: hc.WriteTimeout,
		IdleTimeout:  hc.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Flip readiness first so health-checked balancers drain us, then
		// let in-flight requests finish inside the grace window.
		s.draining.Store(true)
		sctx, cancel := context.WithTimeout(context.Background(), hc.ShutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-errc // always http.ErrServerClosed after Shutdown
		// In-flight HTTP requests have finished (or been cut off); every
		// model can now retire its replica set — the pools are drained and
		// leak-checked.
		for _, m := range s.order {
			if cerr := m.rm.Close(sctx); err == nil {
				err = cerr
			}
		}
		return err
	}
}

// retryAfter estimates, from the live queue and the observed service
// rate, how many seconds until a retrying client plausibly finds a free
// slot: backlog ahead of it (waiters + in-flight) times the per-slot
// service time (p50 / admission concurrency), rounded up and clamped to
// [1, 60]. With no latency history yet there is no rate to project, so
// it falls back to "1".
func retryAfter(m *model) string {
	g := m.rm.Gate()
	p50 := m.rm.Metrics().LatencyQuantile(0.50)
	if p50 <= 0 {
		return "1"
	}
	backlog := g.Waiting() + g.Held()
	est := time.Duration(backlog) * p50 / time.Duration(g.Capacity())
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// validateFinite rejects NaN/±Inf inputs before they reach the binarizer —
// sign(NaN) would silently turn garbage into a confident prediction.
// encoding/json already rejects bare NaN/Infinity tokens, so this is
// defence in depth for future non-JSON ingest paths.
func validateFinite(data []float32) error {
	for i, v := range data {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("input[%d] is %v; inputs must be finite", i, v)
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}
