package registry

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"bitflow/internal/resilience"
)

// This file implements runtime QoS resizing — the piece PR 6 explicitly
// left open: growing or shrinking a model's replica set and admission
// gate capacity on a live process without dropping a single request.
//
// The ordering invariant is that admission capacity never exceeds serving
// capacity:
//
//   - Growing: replicas first, gate second. New replicas exist (and are
//     verified) before any extra request can be admitted to use them.
//   - Shrinking: gate first, replicas second. The gate shrink withdraws
//     admission tokens as current holders release them — in-flight
//     requests always finish — and only then are the now-idle replicas
//     removed from the set.
//
// Resize serializes with Swap and Close on the model's reload lock, so a
// resize can never interleave with a hot reload's verify/flip/drain.

// ResizableReplicaSet is the optional interface a ReplicaSet implements
// to support live resizing. internal/serve's replica pools implement it.
type ResizableReplicaSet interface {
	ReplicaSet
	// Replicas reports the current replica count.
	Replicas() int
	// Resize grows or shrinks the set to n replicas. Growth must verify
	// new replicas before they serve; shrink must drain, never drop.
	Resize(ctx context.Context, n int) error
}

// Resize outcomes.
const (
	// OutcomeResized: the replica set and gate landed on the new geometry.
	OutcomeResized = "resized"
	// OutcomeResizeFailed: the resize was rejected or interrupted; the
	// model keeps serving on whatever geometry the failure left (the
	// status records it — partial gate/replica progress is reported, not
	// hidden).
	OutcomeResizeFailed = "resize_failed"
)

// ResizeStatus is the structured record of one resize attempt, the
// analogue of ReloadStatus for the QoS axis.
type ResizeStatus struct {
	Model        string `json:"model"`
	FromReplicas int    `json:"from_replicas"`
	ToReplicas   int    `json:"to_replicas"`
	FromGate     int    `json:"from_gate"`
	ToGate       int    `json:"to_gate"`
	Outcome      string `json:"outcome"`          // "resized" | "resize_failed"
	Reason       string `json:"reason,omitempty"` // failure detail
	Took         string `json:"took"`
}

// resizeLedger holds the model's resize bookkeeping; split out so Model
// itself stays focused on the swap protocol.
type resizeLedger struct {
	last     atomic.Pointer[ResizeStatus]
	resizes  atomic.Int64
	failures atomic.Int64
}

// LastResize returns the most recent resize attempt's status, or nil.
func (m *Model) LastResize() *ResizeStatus { return m.resize.last.Load() }

// Resizes reports how many resizes completed successfully.
func (m *Model) Resizes() int64 { return m.resize.resizes.Load() }

// ResizeFailures reports how many resizes failed.
func (m *Model) ResizeFailures() int64 { return m.resize.failures.Load() }

// Resize retunes the model's serving geometry on a live process: the
// current replica set and the admission gate (one token per replica)
// are both resized to `replicas`, in the order that keeps admission ≤
// serving capacity at every instant (see the file comment). The whole
// operation runs under resilience.Safe and the model's reload lock — a
// resize racing a hot reload is serialized, and a panic in either
// actuator is contained and reported as a failed resize, never a crash.
//
// The current replica set must implement ResizableReplicaSet; ctx bounds
// the drain waits (gate shrink, replica shrink).
func (m *Model) Resize(ctx context.Context, replicas int) (*ResizeStatus, error) {
	m.reloadMu.Lock()
	defer m.reloadMu.Unlock()
	t0 := time.Now()

	v := m.cur.Load()
	st := &ResizeStatus{
		Model:    m.name,
		FromGate: m.gate.Capacity(),
		ToGate:   replicas,
	}
	fail := func(cause error) (*ResizeStatus, error) {
		st.Outcome = OutcomeResizeFailed
		st.Reason = cause.Error()
		st.Took = time.Since(t0).String()
		m.resize.last.Store(st)
		m.resize.failures.Add(1)
		return st, fmt.Errorf("registry: resize %s: %w", m.name, cause)
	}

	rs, ok := v.set.(ResizableReplicaSet)
	if !ok {
		st.FromReplicas = -1
		st.ToReplicas = replicas
		return fail(fmt.Errorf("replica set %T does not support resizing", v.set))
	}
	st.FromReplicas = rs.Replicas()
	st.ToReplicas = replicas
	if replicas < 1 {
		return fail(fmt.Errorf("replicas must be ≥ 1, got %d", replicas))
	}

	var rerr error
	if perr := resilience.Safe(func() {
		if replicas < st.FromGate {
			// Shrink: stop over-admitting first. This blocks until enough
			// in-flight holders release — draining, never dropping.
			if rerr = m.gate.Resize(ctx, replicas); rerr != nil {
				return
			}
			rerr = rs.Resize(ctx, replicas)
			return
		}
		// Grow (or gate unchanged): replicas first, admission second.
		if rerr = rs.Resize(ctx, replicas); rerr != nil {
			return
		}
		rerr = m.gate.Resize(ctx, replicas)
	}); perr != nil {
		rerr = perr
	}
	if rerr != nil {
		// Record where the geometry actually landed so the ledger never
		// claims a clean state after a partial failure.
		st.ToReplicas = rs.Replicas()
		st.ToGate = m.gate.Capacity()
		return fail(rerr)
	}

	st.Outcome = OutcomeResized
	st.Took = time.Since(t0).String()
	m.resize.last.Store(st)
	m.resize.resizes.Add(1)
	return st, nil
}
