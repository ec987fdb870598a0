// Package actuate seeds violations of the actuate rule: types
// implementing control.Actuator whose Apply bodies poke struct fields
// directly instead of routing through the exported resize API.
package actuate

import (
	"context"

	"bitflow/internal/control"
)

type gateState struct {
	capacity int
}

// badActuator writes serving geometry fields directly — exactly the
// bypass the rule exists to catch.
type badActuator struct {
	replicas int
	gate     *gateState
}

func (a *badActuator) Apply(ctx context.Context, sp control.Setpoints) error {
	a.replicas = sp.Replicas          // want:actuate
	a.gate.capacity = 2 * sp.Replicas // want:actuate
	a.replicas++                      // want:actuate
	a.replicas += sp.Replicas         // want:actuate
	return nil
}

type resizer interface {
	Resize(ctx context.Context, n int) error
}

// goodActuator routes every actuation through an exported API; local
// variables (non-fields) stay writable.
type goodActuator struct {
	rm resizer
}

func (a *goodActuator) Apply(ctx context.Context, sp control.Setpoints) error {
	target := sp.Replicas
	if target < 1 {
		target = 1
	}
	return a.rm.Resize(ctx, target)
}

// excusedActuator is a test fake whose ledger write is annotated.
type excusedActuator struct {
	last control.Setpoints
}

func (a *excusedActuator) Apply(ctx context.Context, sp control.Setpoints) error {
	a.last = sp //bitflow:actuate-ok test fake records applied setpoints for assertions
	return nil
}

// bareExcuse carries a directive with no justification — that is itself
// a finding, never an excuse.
type bareExcuse struct {
	n int
}

func (a *bareExcuse) Apply(ctx context.Context, sp control.Setpoints) error {
	//bitflow:actuate-ok
	a.n = sp.Replicas // want:actuate
	return nil
}

// notAnActuator has a method named Apply with a different signature; its
// field writes are none of this rule's business.
type notAnActuator struct {
	n int
}

func (a *notAnActuator) Apply(n int) {
	a.n = n
}
