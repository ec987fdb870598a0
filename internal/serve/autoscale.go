package serve

// Adaptive serving: each autoscaled model runs a control.Controller that
// observes the model's own gate/latency signals and retunes its replica
// count through the exported actuation API (registry.Model.Resize). This
// file holds the serve side of that loop: the Autoscale configuration,
// the signal source and actuator, the replica-set resize protocol, the
// congestion-derived Retry-After, and the admin pin/unpin surface. The
// controller itself (hysteresis, cooldown, degrade to static) lives in
// internal/control and never imports serve.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bitflow/internal/control"
	"bitflow/internal/resilience"
	"bitflow/internal/tensor"
)

// AutoscaleConfig enables the adaptive serving loop for one model. The
// zero value of any field selects a default derived from the model's
// static Config; the static geometry itself must lie inside the declared
// bounds (that is validated, not silently clamped — an operator who
// writes contradictory flags should hear about it at startup).
type AutoscaleConfig struct {
	// Interval is the control-tick period. Default 250ms.
	Interval time.Duration

	// MinReplicas/MaxReplicas bound the replica count.
	// Defaults: 1 and 2×Replicas.
	MinReplicas, MaxReplicas int

	// HighLoad/LowLoad are the hysteresis thresholds; Cooldown,
	// CorruptLimit, RecoverAfter, and LedgerSize pass through to
	// control.Config (zero selects that package's defaults).
	HighLoad, LowLoad                    float64
	Cooldown, CorruptLimit, RecoverAfter int
	LedgerSize                           int
}

// withDefaults derives the unset bounds from the model's static replica
// count.
func (ac AutoscaleConfig) withDefaults(cfg Config) AutoscaleConfig {
	if ac.MinReplicas == 0 {
		ac.MinReplicas = 1
	}
	if ac.MaxReplicas == 0 {
		ac.MaxReplicas = 2 * cfg.Replicas
	}
	return ac
}

// validate rejects bounds that are internally contradictory or that
// exclude the model's own static replica count. cfg must already have
// defaults applied (including ac itself).
func (ac AutoscaleConfig) validate(cfg Config) error {
	if ac.MinReplicas < 1 || ac.MaxReplicas < ac.MinReplicas {
		return fmt.Errorf("serve: autoscale replica bounds [%d, %d] invalid", ac.MinReplicas, ac.MaxReplicas)
	}
	if cfg.Replicas < ac.MinReplicas || cfg.Replicas > ac.MaxReplicas {
		return fmt.Errorf("serve: static replicas %d outside autoscale bounds [%d, %d]",
			cfg.Replicas, ac.MinReplicas, ac.MaxReplicas)
	}
	return nil
}

// replicaCeiling is the replica count the resizable gate and the
// replica pool are provisioned for up front, so growth never reallocates
// on a live path: the bounds ceiling when autoscaling, the static count
// otherwise.
func replicaCeiling(cfg Config) int {
	if cfg.Autoscale != nil {
		return cfg.Autoscale.MaxReplicas
	}
	return cfg.Replicas
}

// ---------------------------------------------------------------------
// Signal source and actuator: the two dependency-injected halves the
// controller drives. Both touch serving state only through exported
// APIs; control's TestControlImportsNoMechanism keeps the controller
// from reaching past them.

// signals is the model's control.Source: one consistent-enough
// observation of the gate, latency quantiles, and cumulative counters.
func (m *model) signals() (control.Signals, error) {
	g := m.rm.Gate()
	mt := m.rm.Metrics()
	return control.Signals{
		QueueDepth:   g.Waiting(),
		GateHeld:     g.Held(),
		GateCapacity: g.Capacity(),
		MaxQueue:     g.MaxQueue(),
		P50:          mt.LatencyQuantile(0.50),
		P99:          mt.LatencyQuantile(0.99),
		Requests:     mt.Requests.Load(),
		OK:           mt.OK.Load(),
		Shed:         mt.Shed.Load(),
	}, nil
}

// modelActuator applies controller setpoints to one model through the
// registry model's exported Resize (which orders gate vs replica changes
// so admission never exceeds serving capacity). Apply bounds its own
// drain waits: the controller's Run context lives for the whole server,
// and a shrink that waited on it could wedge the loop.
type modelActuator struct {
	m       *model
	timeout time.Duration
}

func (a *modelActuator) Apply(ctx context.Context, sp control.Setpoints) error {
	m := a.m
	rs := m.currentSet()
	if rs == nil {
		return fmt.Errorf("serve: autoscale %s: no serving replica set", m.name)
	}
	if rs.Replicas() == sp.Replicas && m.rm.Gate().Capacity() == sp.Replicas {
		return nil
	}
	actx, cancel := context.WithTimeout(ctx, a.timeout)
	defer cancel()
	_, err := m.rm.Resize(actx, sp.Replicas)
	return err
}

// ---------------------------------------------------------------------
// replicaSet resizing: the serve-side half of registry.Model.Resize.

// Replicas implements registry.ResizableReplicaSet.
func (rs *replicaSet) Replicas() int { return int(rs.replicas.Load()) }

// Resize implements registry.ResizableReplicaSet: grow or shrink the
// set's serving capacity to n replicas. Growth clones the reference
// backend — each clone proved bit-exact before it can serve — and shrink
// withdraws idle replicas from the pool, all-or-nothing within ctx.
func (rs *replicaSet) Resize(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("serve: resize %s: replicas must be ≥ 1, got %d", rs.version, n)
	}
	rs.resizeMu.Lock()
	defer rs.resizeMu.Unlock()
	cur := int(rs.replicas.Load())
	switch {
	case n == cur:
		return nil
	case n > cap(rs.pool):
		return fmt.Errorf("serve: resize %s: %d replicas exceed the provisioned pool bound %d", rs.version, n, cap(rs.pool))
	case n > cur:
		return rs.growPool(n - cur)
	default:
		return rs.shrinkPool(ctx, cur-n)
	}
}

// growPool clones `add` new replicas off the reference backend and
// verifies each one bit-exact against the reference logits before any
// of them enters the pool — growth is all-or-nothing and a diverging
// clone can never serve a request.
func (rs *replicaSet) growPool(add int) error {
	want, x, err := rs.refLogits()
	if err != nil {
		return err
	}
	clones := make([]backend, 0, add)
	var cerr error
	if perr := resilience.Safe(func() {
		for i := 0; i < add; i++ {
			bk := rs.ref.clone()
			var got []float32
			if got, cerr = bk.infer(context.Background(), x); cerr != nil {
				return
			}
			if cerr = logitsBitEqual(got, want); cerr != nil {
				return
			}
			clones = append(clones, bk)
		}
	}); perr != nil {
		cerr = perr
	}
	if cerr != nil {
		return fmt.Errorf("serve: resize %s: verifying grown replica: %w", rs.version, cerr)
	}
	for _, bk := range clones {
		rs.pool <- bk
	}
	rs.replicas.Add(int64(add))
	return nil
}

// shrinkPool withdraws `remove` idle replicas. The registry shrank the
// gate first, so at least `remove` replicas go permanently idle as
// in-flight holders finish; a ctx expiry restores every withdrawn
// replica — the shrink either completes or changes nothing.
func (rs *replicaSet) shrinkPool(ctx context.Context, remove int) error {
	withdrawn := make([]backend, 0, remove)
	for len(withdrawn) < remove {
		select {
		case bk := <-rs.pool:
			withdrawn = append(withdrawn, bk)
		case <-ctx.Done():
			for _, bk := range withdrawn {
				rs.pool <- bk
			}
			return fmt.Errorf("serve: resize %s: drain interrupted with %d/%d replicas withdrawn: %w",
				rs.version, len(withdrawn), remove, ctx.Err())
		}
	}
	rs.replicas.Add(-int64(remove))
	return nil
}

// refLogits lazily computes (and caches) the reference backend's logits
// on the deterministic probe input. Only sets built with autoscaling
// carry a reference backend.
func (rs *replicaSet) refLogits() ([]float32, *tensor.Tensor, error) {
	rs.refMu.Lock()
	defer rs.refMu.Unlock()
	if rs.ref == nil {
		return nil, nil, fmt.Errorf("serve: resize %s: set was not built resizable (no autoscale config)", rs.version)
	}
	if rs.refOut != nil {
		return rs.refOut, rs.refX, nil
	}
	x := probeInput(rs.meta)
	var out []float32
	var err error
	if perr := resilience.Safe(func() { out, err = rs.ref.infer(context.Background(), x) }); perr != nil {
		err = perr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: resize %s: reference inference: %w", rs.version, err)
	}
	rs.refX, rs.refOut = x, out
	return out, x, nil
}

// probeInput builds the deterministic resize-verification input: a ramp
// covering negative, zero, and positive activations so the binarized
// forward pass exercises both sign branches.
func probeInput(meta Meta) *tensor.Tensor {
	x := tensor.New(meta.InputH, meta.InputW, meta.InputC)
	for i := range x.Data {
		x.Data[i] = float32(i%17)/8 - 1
	}
	return x
}

func logitsBitEqual(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("replica produced %d logits, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("logit %d = %v, reference %v — replica is not bit-exact", i, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Congestion-derived Retry-After: the shed paths hint at when capacity
// is actually expected, instead of a flat "1".

// retryAfter estimates, from the live queue and the observed service
// rate, how many seconds until a retrying client plausibly finds a free
// slot: backlog ahead of it (waiters + in-flight) times the per-slot
// service time (p50 / admission concurrency), rounded up and clamped to
// [1, 60]. With no latency history yet there is no rate to project, so
// it falls back to "1".
func retryAfter(m *model) string {
	g := m.rm.Gate()
	p50 := m.rm.Metrics().LatencyQuantile(0.50)
	capacity := g.Capacity()
	if p50 <= 0 || capacity < 1 {
		return "1"
	}
	backlog := g.Waiting() + g.Held()
	est := time.Duration(backlog) * p50 / time.Duration(capacity)
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// ---------------------------------------------------------------------
// Admin surface: GET /admin/autoscale for the per-model controller
// state, POST /admin/autoscale to pin or unpin setpoints.

// ControlStatus snapshots the named model's controller ("" = default),
// or nil when the model is unknown or not autoscaled.
func (s *Server) ControlStatus(name string) *control.Status {
	m, ok := s.lookup(name)
	if !ok || m.ctrl == nil {
		return nil
	}
	st := m.ctrl.Status()
	return &st
}

// PinModel pins the named model's replica count (zero keeps the current
// setpoint), bypassing adaptation until the controller is unpinned. It
// is the programmatic form of POST /admin/autoscale {"action":"pin"}.
func (s *Server) PinModel(ctx context.Context, name string, replicas int) (control.Setpoints, error) {
	m, ok := s.lookup(name)
	if !ok {
		return control.Setpoints{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if m.ctrl == nil {
		return control.Setpoints{}, fmt.Errorf("serve: model %q is not autoscaled", m.name)
	}
	sp := m.ctrl.Setpoints()
	if replicas > 0 {
		sp.Replicas = replicas
	}
	return m.ctrl.Pin(ctx, sp)
}

// AutoscaleRequest is the POST /admin/autoscale body.
type AutoscaleRequest struct {
	// Model selects the controller ("" = default model).
	Model string `json:"model"`
	// Action is "pin" or "unpin".
	Action string `json:"action"`
	// Replicas is the pin target; zero keeps the current setpoint.
	Replicas int `json:"replicas,omitempty"`
}

// AutoscaleResponse reports one pin/unpin attempt.
type AutoscaleResponse struct {
	Model  string          `json:"model"`
	Status *control.Status `json:"status,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (s *Server) handleAdminAutoscale(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		out := map[string]*control.Status{}
		for _, m := range s.order {
			if m.ctrl != nil {
				st := m.ctrl.Status()
				out[m.name] = &st
			}
		}
		writeJSON(w, http.StatusOK, struct {
			Models map[string]*control.Status `json:"models"`
		}{out})
	case http.MethodPost:
		var req AutoscaleRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request: %v", err))
			return
		}
		m, ok := s.lookup(req.Model)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown_model", fmt.Sprintf("unknown model %q", req.Model))
			return
		}
		if m.ctrl == nil {
			writeJSON(w, http.StatusUnprocessableEntity, AutoscaleResponse{
				Model: m.name, Error: fmt.Sprintf("model %q is not autoscaled", m.name)})
			return
		}
		switch req.Action {
		case "pin":
			if _, err := s.PinModel(r.Context(), m.name, req.Replicas); err != nil {
				st := m.ctrl.Status()
				writeJSON(w, http.StatusUnprocessableEntity, AutoscaleResponse{Model: m.name, Status: &st, Error: err.Error()})
				return
			}
		case "unpin":
			m.ctrl.Unpin()
		default:
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("unknown action %q; use \"pin\" or \"unpin\"", req.Action))
			return
		}
		st := m.ctrl.Status()
		writeJSON(w, http.StatusOK, AutoscaleResponse{Model: m.name, Status: &st})
	default:
		w.Header().Set("Allow", "GET, HEAD, POST")
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "GET or POST required")
	}
}
