// Package faultinject is the serving stack's deterministic
// fault-injection seam: a fixed registry of named injection points wired
// into internal/serve, internal/exec, internal/graph and internal/registry,
// plus a seed-driven Script layer that arms them
// with reproducible fault schedules (panic mid-inference, stalled worker,
// injected errors).
//
// The design contract, enforced by bitflow-vet, is that an UNARMED point
// is free on the per-inference hot path: each point holds an atomic
// nil-by-default hook pointer, so Fire on a quiet system is one atomic
// load and a branch — no allocation, no lock, no goroutine. Faults enter
// only through hooks that tests (or the conformance harness) install, and
// every consuming site sits behind the same guard a real failure of that
// kind would hit: a panicking hook at a dispatch site is captured by the
// resilience.Safe boundary that captures real kernel panics, an injected
// clone failure takes the same degraded-fallback path a real clone panic
// would. Injection therefore exercises the production recovery code, not
// a parallel test-only path.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrInjected marks an error manufactured by a fault hook (Fail action or
// a custom hook), so sites and assertions can tell injected failures from
// organic ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Event describes one arrival at an injection point. It is passed by
// value so firing a hook never allocates.
type Event struct {
	// Point is the registered point name, e.g. "graph.layer".
	Point string
	// Detail is the site-specific label: the layer name for graph.layer,
	// empty where the site has nothing finer to say.
	Detail string
	// Index is the site-specific ordinal: the layer index for
	// graph.layer, the chunk start for exec.chunk, the swap stage for
	// registry.swap.
	Index int
	// Ctx is the request/dispatch context when the site has one, else
	// nil. Stall hooks block on it so an injected stall resolves exactly
	// when the request's own deadline fires.
	Ctx context.Context
}

// Hook observes one event and decides the fault: return nil for no fault,
// return an error for sites that propagate one (see each point's allowed
// actions), panic to simulate a crash, or block/sleep to simulate a slow
// or stalled stage. Hooks run on the hot path of whatever site fired them
// and must be safe for concurrent use.
type Hook func(Event) error

// Point is one named injection site. The zero hook state is "disarmed":
// Fire returns nil after a single atomic load. Points are created by this
// package only (see points.go) so the registry is closed and printable.
type Point struct {
	name    string
	allowed []Action
	hook    atomic.Pointer[Hook]
}

// Name returns the registered point name.
//
//bitflow:keep test harness: the faultinject and conformance tests name points through it
func (p *Point) Name() string { return p.name }

// Set installs h as the point's hook (nil disarms). Installation is
// atomic: in-flight Fire calls see either the old or the new hook.
func (p *Point) Set(h Hook) {
	if h == nil {
		p.hook.Store(nil)
		return
	}
	p.hook.Store(&h)
}

// Clear disarms the point.
func (p *Point) Clear() { p.hook.Store(nil) }

// Fire reports the event to the installed hook, if any. With no hook
// installed it returns nil after one atomic load — the disarmed fast
// path every production inference takes.
func (p *Point) Fire(ctx context.Context, detail string, index int) error {
	h := p.hook.Load()
	if h == nil {
		return nil
	}
	return (*h)(Event{Point: p.name, Detail: detail, Index: index, Ctx: ctx})
}

// allows reports whether a is in the point's allowed action set.
func (p *Point) allows(a Action) bool {
	for _, x := range p.allowed {
		if x == a {
			return true
		}
	}
	return false
}

func newPoint(name string, allowed ...Action) *Point {
	return &Point{name: name, allowed: allowed}
}

// injectedPanic is the value a Panic action throws; resilience.Safe wraps
// it like any other panic value, and String keeps failure output legible.
type injectedPanic struct{ ev Event }

func (ip injectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (%s[%d])", ip.ev.Point, ip.ev.Detail, ip.ev.Index)
}
