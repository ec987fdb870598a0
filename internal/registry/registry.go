// Package registry is the multi-model serving control plane: it holds
// each model's versioned replica sets and owns the atomic hot-reload
// protocol that swaps a model's version under live traffic without
// dropping a request, leaking a replica, or ever exposing a half-state.
//
// The contract, mirrored from the serving layer's availability
// invariants:
//
//   - The current version of a model is a single atomic pointer. A
//     request pins exactly one version for its whole lifetime (Acquire),
//     so it either runs entirely on the old version or entirely on the
//     new one — never a mix.
//   - A reload verifies the candidate OFF the hot path (checksum, decode,
//     warm-up, probe self-check — see Artifact.Verify and the verify
//     callback to Swap) before the flip. Any verification failure, or a
//     panic at any stage of the swap, rolls back to the previous version
//     with a structured reason; the old version never stops serving.
//   - After a successful flip the old version drains: in-flight requests
//     that pinned it finish on it, new arrivals only ever see the new
//     pointer, and the old replica set is retired once its pin count
//     reaches zero.
//   - QoS isolation is per model: each Model carries its own admission
//     Gate budget and Metrics, so a burst or fault storm on one model
//     cannot consume another model's replica budget or skew its SLO
//     counters. All models' replicas still dispatch onto the one
//     process-wide exec.Pool — capacity is shared, admission is not.
//
// The package is deliberately free of HTTP and of the serving layer's
// replica plumbing: a ReplicaSet is an opaque payload (internal/serve
// wraps its replica pool in one), so the swap protocol
// is testable with trivial fakes and reusable by future embedders.
package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bitflow/internal/faultinject"
	"bitflow/internal/resilience"
)

// ReplicaSet is one version's serving capacity, owned by the embedding
// layer. Implementations must be safe for concurrent use by requests
// that pinned them via Acquire.
type ReplicaSet interface {
	// Version labels the artifact this set was built from (name@version
	// rendering is the caller's concern; this is just the version part).
	Version() string
	// Retire releases the set's resources (drains and drops replica
	// references). The registry calls it exactly once, off the
	// request path, only after the set can no longer be pinned: either it
	// drained after a swap, or it failed verification and never served.
	Retire(ctx context.Context) error
}

// version wraps a ReplicaSet with the pin accounting the drain protocol
// needs. One allocation per swap, never per request.
type version struct {
	set ReplicaSet
	// inflight counts requests currently pinning this version.
	inflight atomic.Int64
	// draining flips once the version has been swapped out: a request
	// that raced the flip re-reads the current pointer instead.
	draining atomic.Bool
}

// Reload outcomes.
const (
	// OutcomeSwapped: the candidate verified, the pointer flipped, the
	// old version drained (or is draining).
	OutcomeSwapped = "swapped"
	// OutcomeRolledBack: verification failed or the swap panicked; the
	// previous version is still current and the candidate was retired.
	OutcomeRolledBack = "rolled_back"
)

// Reload stages (where a rollback happened, or "ok").
const (
	StageVerify = "verify"
	StageSwap   = "swap"
	StageDrain  = "drain"
)

// ReloadStatus is the structured record of one reload attempt — the
// admin endpoint returns it verbatim and /statusz shows the latest one.
type ReloadStatus struct {
	Model   string `json:"model"`
	From    string `json:"from"`
	To      string `json:"to"`
	Outcome string `json:"outcome"`          // "swapped" | "rolled_back"
	Stage   string `json:"stage,omitempty"`  // failing stage on rollback
	Reason  string `json:"reason,omitempty"` // failure detail on rollback
	Took    string `json:"took"`
}

// ReloadError is the typed error a failed Swap returns alongside the
// status: callers can switch on Stage without parsing strings.
type ReloadError struct {
	Model string
	From  string
	To    string
	Stage string
	Err   error
}

func (e *ReloadError) Error() string {
	return fmt.Sprintf("registry: reload %s: %s→%s rolled back at %s: %v", e.Model, e.From, e.To, e.Stage, e.Err)
}

//bitflow:keep external interface: errors.Is and errors.As unwrap through it
func (e *ReloadError) Unwrap() error { return e.Err }

// Model is one registered name: the current version behind an atomic
// pointer, plus the per-model QoS budget (admission gate and metrics)
// that persists across version swaps — gate tokens belong to the model,
// not the version, so conservation holds trivially across reloads.
type Model struct {
	name    string
	gate    *resilience.Gate
	metrics *resilience.Metrics

	cur atomic.Pointer[version]

	// reloadMu serializes Swap/Close per model; request-path methods
	// never take it. It is the one lock the module holds across another:
	// a reload holds it through the candidate's verify inference, which
	// takes exec.job.mu when it dispatches onto the pool. The reverse
	// order cannot occur: registry imports graph, which imports exec, so
	// exec cannot import registry (the compiler rejects the cycle) and no
	// code running under exec.job.mu can reach reloadMu.
	reloadMu sync.Mutex

	last      atomic.Pointer[ReloadStatus]
	swaps     atomic.Int64
	rollbacks atomic.Int64
}

// NewModel registers initial as the model's first serving version. The
// gate and metrics are owned by the model for its lifetime.
func NewModel(name string, gate *resilience.Gate, metrics *resilience.Metrics, initial ReplicaSet) *Model {
	m := &Model{name: name, gate: gate, metrics: metrics}
	m.cur.Store(&version{set: initial})
	return m
}

// Gate returns the model's admission gate.
func (m *Model) Gate() *resilience.Gate { return m.gate }

// Metrics returns the model's counters.
func (m *Model) Metrics() *resilience.Metrics { return m.metrics }

// Acquire pins the current version for one request and returns it: Set
// is its replica set, and Release (call exactly once, when the request
// is done with the set) drops the pin. The loop re-reads the pointer when
// it raced a swap: incrementing first and checking draining second pairs
// with Swap's flip-then-mark order, so a pinned version is never retired.
func (m *Model) Acquire() *version {
	for {
		v := m.cur.Load()
		v.inflight.Add(1)
		if v.draining.Load() {
			// Lost the race with a swap: this version may already be
			// past its drain wait. Undo the pin and take the new pointer.
			v.inflight.Add(-1)
			continue
		}
		return v
	}
}

// Set returns the pinned version's replica set.
func (v *version) Set() ReplicaSet { return v.set }

// Release drops one pin taken by Acquire.
func (v *version) Release() { v.inflight.Add(-1) }

// Current peeks at the current replica set without pinning it — for
// status reporting only; the set may be swapped out at any moment.
func (m *Model) Current() ReplicaSet { return m.cur.Load().set }

// Version returns the current version label.
func (m *Model) Version() string { return m.cur.Load().set.Version() }

// LastReload returns the most recent reload attempt's status, or nil.
func (m *Model) LastReload() *ReloadStatus { return m.last.Load() }

// Swaps reports how many reloads completed successfully.
func (m *Model) Swaps() int64 { return m.swaps.Load() }

// Rollbacks reports how many reloads rolled back.
func (m *Model) Rollbacks() int64 { return m.rollbacks.Load() }

// Swap atomically replaces the model's current replica set with
// candidate. The protocol:
//
//  1. verify(candidate) runs under resilience.Safe, entirely off the hot
//     path — the current version serves throughout. An error or panic
//     retires the candidate and returns a rollback status; the pointer
//     is never touched.
//  2. The flip is a single atomic pointer store. Requests that pinned
//     the old version keep it; every later Acquire sees the candidate.
//  3. The old version is marked draining and Swap waits (bounded by ctx)
//     for its pin count to reach zero, then retires it. A drain timeout
//     is reported but does not un-flip: the swap is already complete and
//     the old set is simply left for its stragglers.
//
// A panic between flip and drain (the registry.swap injection point
// models one) restores the old pointer, drains and retires the
// candidate, and reports a rollback — never a half-state.
//
// Swap serializes with other Swaps and Close on the same model.
func (m *Model) Swap(ctx context.Context, candidate ReplicaSet, verify func(ReplicaSet) error) (*ReloadStatus, error) {
	m.reloadMu.Lock()
	defer m.reloadMu.Unlock()
	t0 := time.Now()
	old := m.cur.Load()
	st := &ReloadStatus{Model: m.name, From: old.set.Version(), To: candidate.Version()}

	// rollback restores the old version as current. flipped is the
	// candidate's live wrapper when the pointer already moved (requests
	// may have pinned it), nil when the failure happened pre-flip.
	rollback := func(stage string, cause error, flipped *version) (*ReloadStatus, error) {
		cv := flipped
		if cv != nil {
			// Un-flip first so no new request pins the candidate, then
			// drain the few that did before retiring it. old was never
			// marked draining on this path, so its pins are untouched.
			m.cur.Store(old)
		} else {
			cv = &version{set: candidate}
		}
		cv.draining.Store(true)
		m.awaitDrain(ctx, cv)
		m.retire(ctx, candidate)
		st.Outcome = OutcomeRolledBack
		st.Stage = stage
		st.Reason = cause.Error()
		st.Took = time.Since(t0).String()
		m.last.Store(st)
		m.rollbacks.Add(1)
		return st, &ReloadError{Model: m.name, From: st.From, To: st.To, Stage: stage, Err: cause}
	}

	// Stage 1: verification, off the hot path, panic-contained.
	var verr error
	if perr := resilience.Safe(func() {
		if err := faultinject.RegistrySwap.Fire(ctx, m.name, 0); err != nil {
			verr = err
			return
		}
		if verify != nil {
			verr = verify(candidate)
		}
	}); perr != nil {
		return rollback(StageVerify, perr, nil)
	}
	if verr != nil {
		return rollback(StageVerify, verr, nil)
	}

	// Stage 2: the flip, panic-contained so a mid-swap crash rolls back.
	nv := &version{set: candidate}
	var flipped *version
	var swapErr error
	if perr := resilience.Safe(func() {
		if err := faultinject.RegistrySwap.Fire(ctx, m.name, 1); err != nil {
			swapErr = err
			return
		}
		m.cur.Store(nv)
		flipped = nv
		if err := faultinject.RegistrySwap.Fire(ctx, m.name, 2); err != nil {
			swapErr = err
		}
	}); perr != nil {
		return rollback(StageSwap, perr, flipped)
	}
	if swapErr != nil {
		return rollback(StageSwap, swapErr, flipped)
	}

	// Stage 3: drain the old version and retire it.
	old.draining.Store(true)
	st.Outcome = OutcomeSwapped
	st.Took = time.Since(t0).String()
	if !m.awaitDrain(ctx, old) {
		// The flip stands; the old set is left for its in-flight
		// stragglers (requests are deadline-bounded, so this resolves,
		// but the retire is abandoned to avoid yanking replicas mid-use).
		st.Stage = StageDrain
		st.Reason = fmt.Sprintf("drain timeout: %d requests still on %s", old.inflight.Load(), st.From)
		m.last.Store(st)
		m.swaps.Add(1)
		return st, &ReloadError{Model: m.name, From: st.From, To: st.To, Stage: StageDrain, Err: ctx.Err()}
	}
	m.retire(ctx, old.set)
	m.last.Store(st)
	m.swaps.Add(1)
	return st, nil
}

// awaitDrain waits for v's pin count to reach zero, polling at
// millisecond granularity, bounded by ctx. Reports whether it drained.
func (m *Model) awaitDrain(ctx context.Context, v *version) bool {
	for {
		if v.inflight.Load() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return v.inflight.Load() == 0
		case <-time.After(time.Millisecond):
		}
	}
}

// retire calls set.Retire under Safe so a misbehaving Retire cannot take
// down the reload path; the error (or captured panic) is recorded on the
// model's last status rather than propagated.
func (m *Model) retire(ctx context.Context, set ReplicaSet) {
	var rerr error
	if perr := resilience.Safe(func() { rerr = set.Retire(ctx) }); perr != nil {
		rerr = perr
	}
	_ = rerr // retire failures are advisory; the set is unreachable either way
}

// Close retires the model's current replica set — the server shutdown
// path, after the listener has stopped and in-flight requests finished.
func (m *Model) Close(ctx context.Context) error {
	m.reloadMu.Lock()
	defer m.reloadMu.Unlock()
	v := m.cur.Load()
	v.draining.Store(true)
	m.awaitDrain(ctx, v)
	var rerr error
	if perr := resilience.Safe(func() { rerr = v.set.Retire(ctx) }); perr != nil {
		rerr = perr
	}
	return rerr
}
