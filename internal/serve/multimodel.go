package serve

// Multi-model serving: the Server routes /v1/models/{model}/infer (and
// the legacy single-model endpoints, aimed at the default model) onto
// named models, each a registry.Model. Each model owns
// its admission gate and metrics — QoS isolation — while every replica
// of every model dispatches onto the one shared exec pool. Versions hot
// reload through registry.Model.Swap: the candidate replica set is
// built and verified off the hot path, the flip is one atomic pointer
// store, and any failure rolls back to the serving version.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/registry"
	"bitflow/internal/resilience"
	"bitflow/internal/tensor"
)

// ErrUnknownModel marks lookups of a name the server does not serve.
var ErrUnknownModel = errors.New("serve: unknown model")

// ModelSpec configures one model for NewMulti.
type ModelSpec struct {
	// Name routes /v1/models/{name}/infer. Must be URL-safe.
	Name string
	// Net is the model's network (the first replica; others are clones).
	Net *graph.Network
	// Version labels the initial artifact in /statusz and reload
	// statuses. Defaults to "boot".
	Version string
	// Cfg is the model's QoS envelope: replicas, queue bound, deadline.
	// Fixed for the model's lifetime — a version swap changes weights,
	// not capacity.
	Cfg Config
	// Default marks the model the legacy endpoints (/infer, /model)
	// route to. With none marked, the first spec is the default.
	Default bool
}

// model is the serve-side wrapper around a registry.Model: the QoS
// config that outlives version swaps plus the readiness latch.
type model struct {
	name string
	rm   *registry.Model
	cfg  Config // defaults applied
	// meta is the initial version's metadata; the request contract
	// (dims, classes) it describes is invariant across swaps, so the
	// request path reads it without pinning a version.
	meta      Meta
	isDefault bool
	ready     atomic.Bool
}

// replicaSet is one version's serving capacity: a pool of replicas. It
// is the registry.ReplicaSet payload the swap protocol manages.
type replicaSet struct {
	version  string
	meta     Meta
	replicas int // fixed at build; the pool holds exactly this many
	pool     chan backend
	// exec is the resolved base execution context shared by this set's
	// replicas (nil for test backends that don't take one).
	exec *exec.Ctx
}

// Version implements registry.ReplicaSet.
func (rs *replicaSet) Version() string { return rs.version }

// Retire implements registry.ReplicaSet: drain the replica pool. The
// registry only calls it once the set can no longer be pinned, so a
// non-full pool here means a replica leaked.
func (rs *replicaSet) Retire(ctx context.Context) error {
	n := rs.replicas
	for i := 0; i < n; i++ {
		select {
		case <-rs.pool:
		default:
			return fmt.Errorf("serve: retiring %s: only %d/%d replicas returned", rs.version, i, n)
		}
	}
	return nil
}

// selfCheck runs the deterministic probe input through the set's real
// serving path (a pooled replica) and requires logits bit-identical to
// the artifact's recorded probe — the last rung of the reload
// verification ladder, proving the replicas built from the artifact
// serve exactly what the prototype computed.
func (rs *replicaSet) selfCheck(ctx context.Context, x *tensor.Tensor, want []float32) error {
	var logits []float32
	var err error
	select {
	case b := <-rs.pool:
		logits, err = b.infer(ctx, x)
		rs.pool <- b
	default:
		return fmt.Errorf("serve: self-check: no idle replica in candidate set %s", rs.version)
	}
	if err != nil {
		return fmt.Errorf("serve: self-check inference on %s: %w", rs.version, err)
	}
	if len(logits) != len(want) {
		return fmt.Errorf("serve: self-check on %s: %d logits, artifact probe has %d", rs.version, len(logits), len(want))
	}
	for i := range want {
		if logits[i] != want[i] {
			return fmt.Errorf("serve: self-check on %s: logit %d = %v, artifact probe %v — replica is not bit-exact",
				rs.version, i, logits[i], want[i])
		}
	}
	return nil
}

// buildReplicaSet clones "first" out to the configured replica count and
// pools the clones. cfg must already have defaults applied. It allocates
// and clones but never runs inference — verification is the caller's
// ladder.
func buildReplicaSet(version string, meta Meta, first backend, cfg Config, metrics *resilience.Metrics) *replicaSet {
	rs := &replicaSet{version: version, meta: meta, replicas: cfg.Replicas}
	// Attach the shared execution context (pool + budget + layer-stats
	// observer) before cloning so the first backend — and every clone
	// taken from it below — dispatches onto the same pool.
	if ea, ok := first.(execAttacher); ok {
		rs.exec = ea.attachExec(cfg.Exec, metrics.ObserveLayer)
	} else {
		rs.exec = cfg.Exec
	}
	rs.pool = make(chan backend, cfg.Replicas)
	rs.pool <- first
	for i := 1; i < cfg.Replicas; i++ {
		rs.pool <- first.clone()
	}
	return rs
}

// currentSet returns the set a non-request-path reader (statusz, admin)
// should describe. Request paths pin via rm.Acquire instead.
func (m *model) currentSet() *replicaSet {
	rs, _ := m.rm.Current().(*replicaSet)
	return rs
}

// metaFromNetwork derives the /model metadata for one network.
func metaFromNetwork(net *graph.Network) Meta {
	ms := net.ModelSize()
	return Meta{
		Name:   net.Name,
		InputH: net.InH, InputW: net.InW, InputC: net.InC,
		Classes:          net.Classes,
		Layers:           len(net.Layers()),
		FusedLayers:      net.Fusion().Pairs,
		CompressedLayers: net.CompressedLayers(),
		Weights:          ms.Weights,
		PackedBytes:      ms.BinarizedBytes,
		CompressionRate:  ms.Compression(),
	}
}

// NewMulti builds a server hosting one model per spec. Every model gets
// its own gate and metrics; the legacy endpoints route to the default
// spec (the first, unless one sets Default).
func NewMulti(specs []ModelSpec) (*Server, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no models")
	}
	s := &Server{
		byName:  map[string]*model{},
		started: time.Now(),
	}
	defaults := 0
	for _, sp := range specs {
		if sp.Default {
			defaults++
		}
	}
	if defaults > 1 {
		return nil, fmt.Errorf("serve: multiple models marked default")
	}
	for i, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("serve: model %d has no name", i)
		}
		if !registry.ValidName(sp.Name) {
			return nil, fmt.Errorf("serve: model name %q is not URL-safe", sp.Name)
		}
		if sp.Net == nil {
			return nil, fmt.Errorf("serve: model %q has no network", sp.Name)
		}
		m, err := s.addModel(sp.Name, orBoot(sp.Version), metaFromNetwork(sp.Net), netBackend{net: sp.Net}, sp.Cfg)
		if err != nil {
			return nil, err
		}
		if sp.Default || (defaults == 0 && i == 0) {
			m.isDefault = true
			s.def = m
		}
	}
	return s, nil
}

func orBoot(version string) string {
	if version == "" {
		return "boot"
	}
	return version
}

// addModel builds the model around its first replica set, runs the
// warm-up that arms readiness, and registers it.
func (s *Server) addModel(name, version string, meta Meta, first backend, cfg Config) (*model, error) {
	if _, dup := s.byName[name]; dup {
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	cfg = cfg.withDefaults()
	meta.Replicas = cfg.Replicas
	metrics := resilience.NewMetrics(1024)
	gate := resilience.NewGate(cfg.Replicas, cfg.MaxQueue)
	m := &model{name: name, cfg: cfg, meta: meta}
	// Warm up on the first backend before it enters the pool: a model
	// that cannot infer must never be marked ready.
	x := tensor.New(meta.InputH, meta.InputW, meta.InputC)
	var inferErr error
	panicErr := resilience.Safe(func() { _, inferErr = first.infer(context.Background(), x) })
	m.ready.Store(panicErr == nil && inferErr == nil)

	m.rm = registry.NewModel(name, gate, metrics, buildReplicaSet(version, meta, first, cfg, metrics))
	s.byName[name] = m
	s.order = append(s.order, m)
	return m, nil
}

// lookup resolves a model by name, "" meaning the default model.
func (s *Server) lookup(name string) (*model, bool) {
	if name == "" {
		return s.def, s.def != nil
	}
	m, ok := s.byName[name]
	return m, ok
}

// Models lists the served model names in registration order.
func (s *Server) Models() []string {
	names := make([]string, len(s.order))
	for i, m := range s.order {
		names[i] = m.name
	}
	return names
}

// ModelMetrics returns the named model's counters ("" = default), or
// nil if unknown — for tests and the conformance oracle.
func (s *Server) ModelMetrics(name string) *resilience.Metrics {
	m, ok := s.lookup(name)
	if !ok {
		return nil
	}
	return m.rm.Metrics()
}

// ModelMeta returns the live /model metadata for a named model
// ("" = default) — after a hot reload, the metadata of the serving
// version, not the boot-time one.
func (s *Server) ModelMeta(name string) (Meta, error) {
	m, ok := s.lookup(name)
	if !ok {
		return Meta{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	meta := m.meta
	if rs := m.currentSet(); rs != nil {
		meta = rs.meta
	}
	return meta, nil
}

// IntrospectModel is Introspect for a named model ("" = default).
func (s *Server) IntrospectModel(name string) (Introspection, error) {
	m, ok := s.lookup(name)
	if !ok {
		return Introspection{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	gate := m.rm.Gate()
	in := Introspection{
		Model:        m.name,
		Version:      m.rm.Version(),
		GateHeld:     gate.Held(),
		GateWaiting:  gate.Waiting(),
		GateCapacity: gate.Capacity(),
		GateMaxQueue: gate.MaxQueue(),
		Replicas:     m.cfg.Replicas,
	}
	if rs := m.currentSet(); rs != nil {
		in.PoolAvailable = len(rs.pool)
	}
	return in, nil
}

// ReloadModel atomically swaps the named model onto the artifact: the
// candidate replica set is built and verified off the hot path (the
// artifact's warm-up/probe ladder, then a bit-exact self-check through
// the candidate's real serving path), the flip is one atomic pointer
// store, and any failure — including a panic mid-swap — rolls back to
// the serving version with a structured reason. In-flight requests
// drain on whichever version they pinned.
func (s *Server) ReloadModel(ctx context.Context, name string, art *registry.Artifact) (*registry.ReloadStatus, error) {
	m, ok := s.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if art == nil || art.Net == nil {
		return nil, fmt.Errorf("serve: reload %s: nil artifact", name)
	}
	// A version swap changes weights, never the request contract:
	// clients encoding H×W×C inputs and reading Classes logits must not
	// be broken by a reload.
	if cur := m.currentSet(); cur != nil {
		if art.Net.InH != cur.meta.InputH || art.Net.InW != cur.meta.InputW ||
			art.Net.InC != cur.meta.InputC || art.Net.Classes != cur.meta.Classes {
			return nil, fmt.Errorf("serve: reload %s: artifact geometry %dx%dx%d->%d does not match serving %dx%dx%d->%d",
				name, art.Net.InH, art.Net.InW, art.Net.InC, art.Net.Classes,
				cur.meta.InputH, cur.meta.InputW, cur.meta.InputC, cur.meta.Classes)
		}
	}
	meta := metaFromNetwork(art.Net)
	meta.Replicas = m.cfg.Replicas

	// Build the candidate set under Safe: a crash while cloning replicas
	// must surface as a reload error, never take the serving process
	// down.
	var candidate *replicaSet
	if perr := resilience.Safe(func() {
		candidate = buildReplicaSet(art.Version, meta, netBackend{net: art.Net}, m.cfg, m.rm.Metrics())
	}); perr != nil {
		return nil, fmt.Errorf("serve: reload %s: building candidate: %w", name, perr)
	}

	verify := func(vset registry.ReplicaSet) error {
		// The artifact ladder: warm-up inference, finite probe logits,
		// prototype/clone bit-exactness. Records art.Probe.
		if err := art.Verify(); err != nil {
			return err
		}
		rs, ok := vset.(*replicaSet)
		if !ok {
			return fmt.Errorf("serve: reload %s: candidate is %T, not a replica set", name, vset)
		}
		return rs.selfCheck(ctx, art.ProbeInput(), art.Probe)
	}
	return m.rm.Swap(ctx, candidate, verify)
}

// ---------------------------------------------------------------------
// Admin surface: reloads are operator actions, so they live on their own
// handler the caller binds to a separate (typically loopback-only)
// listener — never the traffic port.

// ArtifactLoader opens and decodes a packed artifact for the admin
// reload endpoint. cmd/bitflow-serve supplies registry.LoadArtifact
// closed over the detected CPU features; serve itself stays
// schedule-agnostic.
type ArtifactLoader func(path, version string) (*registry.Artifact, error)

// ReloadRequest is the POST /admin/reload body.
type ReloadRequest struct {
	Model   string `json:"model"`
	Path    string `json:"path"`
	Version string `json:"version,omitempty"`
}

// ReloadResponse reports one reload attempt: the structured status when
// the swap protocol ran (either outcome), plus the error string on
// failure.
type ReloadResponse struct {
	Status *registry.ReloadStatus `json:"status,omitempty"`
	Error  string                 `json:"error,omitempty"`
}

// AdminHandler returns the operator endpoint tree:
//
//	POST /admin/reload    → {"model","path","version"?} — load, verify,
//	                        and atomically swap; 200 on swap, 422 with
//	                        the rollback status on any verification
//	                        failure.
//	GET  /admin/models    → per-model reload ledger.
func (s *Server) AdminHandler(load ArtifactLoader) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			writeError(w, http.StatusMethodNotAllowed, "bad_request", "POST required")
			return
		}
		var req ReloadRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request: %v", err))
			return
		}
		m, ok := s.lookup(req.Model)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown_model",
				fmt.Sprintf("unknown model %q", req.Model))
			return
		}
		if req.Path == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "path is required")
			return
		}
		art, err := load(req.Path, req.Version)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, ReloadResponse{Error: err.Error()})
			return
		}
		st, err := s.ReloadModel(r.Context(), m.name, art)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, ReloadResponse{Status: st, Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, ReloadResponse{Status: st})
	})
	mux.HandleFunc("/admin/models", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, http.StatusMethodNotAllowed, "bad_request", "GET required")
			return
		}
		type ledger struct {
			Name       string                 `json:"name"`
			Version    string                 `json:"version"`
			Default    bool                   `json:"default,omitempty"`
			Swaps      int64                  `json:"swaps"`
			Rollbacks  int64                  `json:"rollbacks"`
			LastReload *registry.ReloadStatus `json:"last_reload,omitempty"`
		}
		out := make([]ledger, len(s.order))
		for i, m := range s.order {
			out[i] = ledger{
				Name:       m.name,
				Version:    m.rm.Version(),
				Default:    m.isDefault,
				Swaps:      m.rm.Swaps(),
				Rollbacks:  m.rm.Rollbacks(),
				LastReload: m.rm.LastReload(),
			}
		}
		writeJSON(w, http.StatusOK, struct {
			Models []ledger `json:"models"`
		}{out})
	})
	return mux
}
