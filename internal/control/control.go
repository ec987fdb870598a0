// Package control is the closed-loop autoscale controller: it observes
// the signals the serving stack already exports (gate queue depth and
// held tokens, shed counts, latency quantiles) and continuously retunes
// a model's replica count within operator-declared bounds.
//
// The controller is deliberately decoupled from the things it controls:
// it reads through a Source function and acts through an Actuator
// interface, both injected at construction, and imports none of the
// serving packages. Actuation therefore can only go through the exported
// resize API the actuator wraps; TestControlImportsNoMechanism holds the
// import side.
//
// Stability over cleverness:
//
//   - Hysteresis: scale-up triggers (shed, deep queue, saturated gate)
//     and scale-down triggers (empty queue, idle gate) are separated by a
//     wide dead band, so ordinary load noise actuates nothing.
//   - Cooldown: after any actuation the controller holds for a fixed
//     number of ticks, so one burst produces one step, not a staircase
//     of flapping.
//   - Degrade to static: signals that fail validation (negative gauges,
//     regressing counters, a Source error, an injected control.tick
//     fault) count as corrupt ticks; enough consecutive corruption and
//     the controller reverts the system to its static configuration and
//     stops adapting until the signals have been clean again for a
//     while. A broken sensor yields the startup flags, never
//     oscillation.
//   - Pinning: an operator can pin setpoints through the admin API;
//     pinned setpoints are applied once and the controller goes
//     observe-only until unpinned.
//
// Every actuation, degradation, recovery, and pin is recorded in a
// bounded decision ledger surfaced on /statusz.
package control

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bitflow/internal/faultinject"
	"bitflow/internal/resilience"
)

// Setpoints is one serving geometry: the control variable the loop owns.
// It doubles as its own /statusz rendering.
type Setpoints struct {
	// Replicas is the model's replica count.
	Replicas int `json:"replicas"`
}

// Bounds are the operator-declared limits the controller must never
// leave, whatever the signals say.
type Bounds struct {
	MinReplicas int `json:"min_replicas"`
	MaxReplicas int `json:"max_replicas"`
}

// Clamp forces sp inside b.
func (b Bounds) Clamp(sp Setpoints) Setpoints {
	sp.Replicas = min(max(sp.Replicas, b.MinReplicas), b.MaxReplicas)
	return sp
}

// Contains reports whether sp is inside b.
func (b Bounds) Contains(sp Setpoints) bool { return b.Clamp(sp) == sp }

func (b Bounds) validate() error {
	if b.MinReplicas < 1 || b.MaxReplicas < b.MinReplicas {
		return fmt.Errorf("control: replica bounds [%d, %d] invalid", b.MinReplicas, b.MaxReplicas)
	}
	return nil
}

// Signals is one observation of the serving stack. Gauges are
// instantaneous; the counters are cumulative and the controller
// differences them between ticks itself.
type Signals struct {
	// Gauges.
	QueueDepth   int64         // admission waiters right now
	GateHeld     int64         // admission tokens held right now
	GateCapacity int           // current admission concurrency
	MaxQueue     int           // admission wait-queue bound
	P50          time.Duration // recent service-time quantiles
	P99          time.Duration

	// Cumulative counters.
	Requests int64
	OK       int64
	Shed     int64
}

func (s Signals) validate() error {
	switch {
	case s.QueueDepth < 0, s.GateHeld < 0, s.GateCapacity < 1, s.MaxQueue < 0:
		return fmt.Errorf("control: gauge out of range (queue=%d held=%d capacity=%d max_queue=%d)",
			s.QueueDepth, s.GateHeld, s.GateCapacity, s.MaxQueue)
	case s.P50 < 0, s.P99 < 0:
		return fmt.Errorf("control: negative latency quantile (p50=%v p99=%v)", s.P50, s.P99)
	case s.Requests < 0, s.OK < 0, s.Shed < 0:
		return errors.New("control: negative cumulative counter")
	}
	return nil
}

// regressed reports whether any cumulative counter moved backwards since
// prev — the signature of a corrupted or reset signal source.
func (s Signals) regressed(prev Signals) bool {
	return s.Requests < prev.Requests || s.OK < prev.OK || s.Shed < prev.Shed
}

// Source reads one observation. It is called once per tick, off the
// request path; an error marks the tick corrupt.
type Source func() (Signals, error)

// Actuator applies a new geometry to the serving stack. Implementations
// must go through the exported resize API (registry.Model.Resize), never
// poke serving fields directly.
type Actuator interface {
	Apply(ctx context.Context, sp Setpoints) error
}

// Controller states.
const (
	// StateAdapting: the loop is live and may actuate.
	StateAdapting = "adapting"
	// StatePinned: an operator pinned the setpoints; observe-only.
	StatePinned = "pinned"
	// StateDegraded: signal corruption reverted the system to its static
	// configuration; observe-only until signals are clean again.
	StateDegraded = "degraded"
)

// Decision actions, as recorded in the ledger.
const (
	ActionScaleUp     = "scale_up"
	ActionScaleDown   = "scale_down"
	ActionDegrade     = "degrade"
	ActionRecover     = "recover"
	ActionPin         = "pin"
	ActionUnpin       = "unpin"
	ActionApplyFailed = "apply_failed"
)

// Config parameterizes a Controller. Source and Actuator are required.
type Config struct {
	// Model names the controlled model in ledger entries and fault
	// events.
	Model string
	// Bounds are the operator limits; required.
	Bounds Bounds
	// Static is the startup-flag geometry: the initial setpoints and the
	// configuration the controller reverts to when degraded. Clamped to
	// Bounds.
	Static Setpoints
	// Interval is the tick period for Run. Default 250ms.
	Interval time.Duration
	// HighLoad is the queue-fraction scale-up threshold. Default 0.75.
	HighLoad float64
	// LowLoad is the gate-utilization scale-down threshold. Default 0.25.
	LowLoad float64
	// Cooldown is the number of ticks to hold after an actuation.
	// Default 3.
	Cooldown int
	// CorruptLimit is the number of consecutive corrupt ticks before the
	// controller degrades to Static. Default 3.
	CorruptLimit int
	// RecoverAfter is the number of consecutive clean ticks before a
	// degraded controller resumes adapting. Default 5.
	RecoverAfter int
	// LedgerSize bounds the decision ledger. Default 32.
	LedgerSize int

	Source   Source
	Actuator Actuator
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.HighLoad <= 0 {
		c.HighLoad = 0.75
	}
	if c.LowLoad <= 0 {
		c.LowLoad = 0.25
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3
	}
	if c.CorruptLimit <= 0 {
		c.CorruptLimit = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 5
	}
	if c.LedgerSize <= 0 {
		c.LedgerSize = 32
	}
	return c
}

// Decision is one ledger entry.
type Decision struct {
	Tick      int64     `json:"tick"`
	Action    string    `json:"action"`
	Reason    string    `json:"reason"`
	Setpoints Setpoints `json:"setpoints"`
}

// Status is the controller's /statusz section.
type Status struct {
	State        string     `json:"state"`
	Setpoints    Setpoints  `json:"setpoints"`
	Static       Setpoints  `json:"static"`
	Bounds       Bounds     `json:"bounds"`
	Ticks        int64      `json:"ticks"`
	Actuations   int64      `json:"actuations"`
	CorruptTicks int64      `json:"corrupt_ticks"`
	Decisions    []Decision `json:"decisions,omitempty"`
}

// Controller runs the loop. Create with New; drive with Run (or Tick
// directly in tests). All methods are safe for concurrent use.
type Controller struct {
	cfg Config

	mu           sync.Mutex
	cur          Setpoints
	state        string
	ticks        int64
	actuations   int64
	corruptTotal int64
	corruptRun   int
	cleanRun     int
	cooldown     int
	needStatic   bool // a degrade's revert-to-static has not landed yet
	prev         Signals
	havePrev     bool
	ledger       []Decision
}

// New builds a controller. The initial setpoints are cfg.Static clamped
// to cfg.Bounds; nothing is actuated until the first Tick decides to.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Source == nil || cfg.Actuator == nil {
		return nil, errors.New("control: Config.Source and Config.Actuator are required")
	}
	if err := cfg.Bounds.validate(); err != nil {
		return nil, err
	}
	if cfg.HighLoad <= cfg.LowLoad {
		return nil, fmt.Errorf("control: HighLoad %.2f must exceed LowLoad %.2f", cfg.HighLoad, cfg.LowLoad)
	}
	cfg.Static = cfg.Bounds.Clamp(cfg.Static)
	return &Controller{cfg: cfg, cur: cfg.Static, state: StateAdapting}, nil
}

// Setpoints returns the current geometry as the controller believes it.
func (c *Controller) Setpoints() Setpoints {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// Run drives the controller at cfg.Interval until ctx is done. It
// blocks; the caller owns the goroutine (this package spawns none).
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick(ctx)
		}
	}
}

// Tick runs one control iteration: fire the control.tick fault point,
// read and validate signals, and — when adapting, past cooldown, and
// outside the dead band — actuate one bounded step. The whole body runs
// under resilience.Safe: a panicking source or actuator is a corrupt
// tick, never a crash.
func (c *Controller) Tick(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++

	var sig Signals
	var serr error
	if perr := resilience.Safe(func() {
		if err := faultinject.ControlTick.Fire(ctx, c.cfg.Model, int(c.ticks)); err != nil {
			serr = err
			return
		}
		sig, serr = c.cfg.Source()
		if serr == nil {
			serr = sig.validate()
		}
		if serr == nil && c.havePrev && sig.regressed(c.prev) {
			serr = errors.New("control: cumulative counters regressed")
		}
	}); perr != nil {
		serr = perr
	}
	if serr != nil {
		c.corruptTick(ctx, serr)
		return
	}
	c.cleanTick(ctx, sig)
}

// corruptTick accounts one invalid observation and degrades to the
// static configuration once corruption persists.
func (c *Controller) corruptTick(ctx context.Context, cause error) {
	c.corruptTotal++
	c.corruptRun++
	c.cleanRun = 0
	if c.state == StatePinned {
		return // the operator's pin outranks the sensors
	}
	if c.state == StateDegraded {
		c.retryStatic(ctx)
		return
	}
	if c.corruptRun < c.cfg.CorruptLimit {
		return
	}
	c.state = StateDegraded
	c.needStatic = c.cur != c.cfg.Static
	reason := fmt.Sprintf("%d consecutive corrupt ticks (%v): reverting to static configuration", c.corruptRun, cause)
	if c.needStatic {
		if err := c.apply(ctx, c.cfg.Static); err != nil {
			c.record(ActionApplyFailed, fmt.Sprintf("degrade revert failed: %v", err))
		} else {
			c.cur = c.cfg.Static
			c.needStatic = false
		}
	}
	c.record(ActionDegrade, reason)
}

// retryStatic re-attempts a degrade's revert that failed to land.
func (c *Controller) retryStatic(ctx context.Context) {
	if !c.needStatic {
		return
	}
	if err := c.apply(ctx, c.cfg.Static); err == nil {
		c.cur = c.cfg.Static
		c.needStatic = false
	}
}

// cleanTick processes one valid observation.
func (c *Controller) cleanTick(ctx context.Context, sig Signals) {
	c.corruptRun = 0
	defer func() { c.prev = sig; c.havePrev = true }()

	switch c.state {
	case StatePinned:
		return
	case StateDegraded:
		c.retryStatic(ctx)
		c.cleanRun++
		if c.cleanRun < c.cfg.RecoverAfter || c.needStatic {
			return
		}
		c.state = StateAdapting
		c.cleanRun = 0
		c.cooldown = c.cfg.Cooldown
		c.record(ActionRecover, fmt.Sprintf("signals clean for %d ticks: resuming adaptation from static", c.cfg.RecoverAfter))
		return
	}

	if !c.havePrev {
		return // need a counter baseline before the first decision
	}
	if c.cooldown > 0 {
		c.cooldown--
		return
	}
	next, reason, action := c.decide(sig)
	if action == "" {
		return
	}
	if err := c.apply(ctx, next); err != nil {
		c.record(ActionApplyFailed, fmt.Sprintf("%s rejected: %v", action, err))
		c.cooldown = c.cfg.Cooldown // don't hammer a failing actuator
		return
	}
	c.cur = next
	c.actuations++
	c.cooldown = c.cfg.Cooldown
	c.record(action, reason)
}

// decide picks the next geometry from one observation, or returns an
// empty action to hold. One bounded step per call, with a wide dead band
// between the scale-up and scale-down trigger sets.
func (c *Controller) decide(sig Signals) (Setpoints, string, string) {
	b := c.cfg.Bounds
	next := c.cur

	shed := sig.Shed - c.prev.Shed
	util := float64(sig.GateHeld) / float64(max(sig.GateCapacity, 1))
	queueFrac := 0.0
	if sig.MaxQueue > 0 {
		queueFrac = float64(sig.QueueDepth) / float64(sig.MaxQueue)
	} else if sig.QueueDepth > 0 {
		queueFrac = 1
	}

	// Scale up: requests were shed, the wait queue is deep, or every
	// admission token is held with more callers waiting.
	if shed > 0 || queueFrac >= c.cfg.HighLoad || (util >= 1 && sig.QueueDepth > 0) {
		if next.Replicas < b.MaxReplicas {
			next.Replicas++
			return next, fmt.Sprintf("pressure (shed=%d queue=%.2f util=%.2f): replicas %d→%d",
				shed, queueFrac, util, c.cur.Replicas, next.Replicas), ActionScaleUp
		}
		return c.cur, "", "" // already at the operator's ceiling
	}

	// Scale down: no shedding, no queue, and an idle gate.
	if shed == 0 && sig.QueueDepth == 0 && next.Replicas > b.MinReplicas && util <= c.cfg.LowLoad {
		next.Replicas--
		return next, fmt.Sprintf("idle gate (util=%.2f): replicas %d→%d",
			util, c.cur.Replicas, next.Replicas), ActionScaleDown
	}
	return c.cur, "", ""
}

// apply pushes a geometry through the actuator under Safe.
func (c *Controller) apply(ctx context.Context, sp Setpoints) error {
	var aerr error
	if perr := resilience.Safe(func() { aerr = c.cfg.Actuator.Apply(ctx, sp) }); perr != nil {
		return perr
	}
	return aerr
}

// record appends one ledger entry, evicting the oldest past LedgerSize.
func (c *Controller) record(action, reason string) {
	c.ledger = append(c.ledger, Decision{Tick: c.ticks, Action: action, Reason: reason, Setpoints: c.cur})
	if len(c.ledger) > c.cfg.LedgerSize {
		c.ledger = c.ledger[len(c.ledger)-c.cfg.LedgerSize:]
	}
}

// Pin applies sp (clamped to bounds) and freezes the controller on it
// until Unpin. Pinned outranks both adaptation and degradation.
func (c *Controller) Pin(ctx context.Context, sp Setpoints) (Setpoints, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp = c.cfg.Bounds.Clamp(sp)
	if err := c.apply(ctx, sp); err != nil {
		c.record(ActionApplyFailed, fmt.Sprintf("pin rejected: %v", err))
		return c.cur, err
	}
	c.cur = sp
	c.state = StatePinned
	c.needStatic = false
	c.record(ActionPin, fmt.Sprintf("operator pinned replicas=%d", sp.Replicas))
	return sp, nil
}

// Unpin releases an operator pin; the controller resumes adapting from
// the pinned geometry after one cooldown.
func (c *Controller) Unpin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StatePinned {
		return
	}
	c.state = StateAdapting
	c.corruptRun = 0
	c.cleanRun = 0
	c.cooldown = c.cfg.Cooldown
	c.record(ActionUnpin, "operator unpinned; resuming adaptation")
}

// Status snapshots the controller for /statusz.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		State:        c.state,
		Setpoints:    c.cur,
		Static:       c.cfg.Static,
		Bounds:       c.cfg.Bounds,
		Ticks:        c.ticks,
		Actuations:   c.actuations,
		CorruptTicks: c.corruptTotal,
		Decisions:    append([]Decision(nil), c.ledger...),
	}
}
