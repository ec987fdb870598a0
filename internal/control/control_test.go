package control

import (
	"context"
	"errors"
	"go/build"
	"strings"
	"sync"
	"testing"
	"time"

	"bitflow/internal/faultinject"
)

// fakeActuator records every Apply and can be told to fail.
type fakeActuator struct {
	mu      sync.Mutex
	applied []Setpoints
	fail    error
}

func (a *fakeActuator) Apply(_ context.Context, sp Setpoints) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fail != nil {
		return a.fail
	}
	a.applied = append(a.applied, sp)
	return nil
}

func (a *fakeActuator) all() []Setpoints {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Setpoints(nil), a.applied...)
}

// sigScript replays a sequence of observations, repeating the last one.
type sigScript struct {
	mu   sync.Mutex
	seq  []Signals
	errs []error
	i    int
}

func (s *sigScript) read() (Signals, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.i
	if i >= len(s.seq) {
		i = len(s.seq) - 1
	}
	s.i++
	var err error
	if i < len(s.errs) {
		err = s.errs[i]
	}
	return s.seq[i], err
}

func testBounds() Bounds {
	return Bounds{MinReplicas: 1, MaxReplicas: 4}
}

func testConfig(src Source, act Actuator) Config {
	return Config{
		Model:  "m",
		Bounds: testBounds(),
		Static: Setpoints{Replicas: 2},

		Cooldown:     1,
		CorruptLimit: 3,
		RecoverAfter: 5,
		Source:       src,
		Actuator:     act,
	}
}

// saturated is an observation that demands scale-up: the queue is deep
// and requests were shed.
func saturated(tick int64, cap int) Signals {
	return Signals{
		QueueDepth: 14, GateHeld: int64(cap), GateCapacity: cap, MaxQueue: 16,
		Requests: tick * 100, OK: tick * 80, Shed: tick * 20,
	}
}

// idle is an observation that permits scale-down: empty queue, idle
// gate.
func idle(tick int64, cap int) Signals {
	return Signals{
		QueueDepth: 0, GateHeld: 0, GateCapacity: cap, MaxQueue: 16,
		Requests: 1000 + tick, OK: 1000 + tick, Shed: 50,
	}
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestScaleUpLadderRespectsBoundsAndCooldown(t *testing.T) {
	act := &fakeActuator{}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return saturated(tick, 8), nil
	}, act))

	for i := 0; i < 40; i++ {
		c.Tick(context.Background())
	}
	applied := act.all()
	if len(applied) == 0 {
		t.Fatalf("saturated signals never actuated")
	}
	b := testBounds()
	for i, sp := range applied {
		if !b.Contains(sp) {
			t.Fatalf("applied[%d] = %+v outside bounds", i, sp)
		}
	}
	if final := c.Setpoints(); final.Replicas != b.MaxReplicas {
		t.Fatalf("sustained saturation should climb to the ceiling, got %+v", final)
	}
	// One replica per step: the ladder from the static 2 to the ceiling of
	// 4 is two actuations, however long the saturation lasts.
	for i, sp := range applied {
		if sp.Replicas != 3+i {
			t.Fatalf("applied[%d] = %+v, want replicas %d (one step at a time)", i, sp, 3+i)
		}
	}
	if len(applied) != 2 {
		t.Fatalf("expected 2 ladder steps, actuated %d times (flapping?)", len(applied))
	}
}

func TestScaleDownWhenIdle(t *testing.T) {
	act := &fakeActuator{}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return idle(tick, 8), nil
	}, act))

	for i := 0; i < 40; i++ {
		c.Tick(context.Background())
	}
	b := testBounds()
	if final := c.Setpoints(); final.Replicas != b.MinReplicas {
		t.Fatalf("sustained idle should trim to the floor, got %+v", final)
	}
	for i, sp := range act.all() {
		if !b.Contains(sp) {
			t.Fatalf("applied[%d] = %+v outside bounds", i, sp)
		}
	}
}

func TestDeadBandHolds(t *testing.T) {
	act := &fakeActuator{}
	var tick int64
	// Moderate load: some held tokens, shallow queue — inside the dead
	// band.
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return Signals{
			QueueDepth: 2, GateHeld: 4, GateCapacity: 8, MaxQueue: 16,
			Requests: tick * 10, OK: tick * 10,
		}, nil
	}, act))
	for i := 0; i < 30; i++ {
		c.Tick(context.Background())
	}
	if n := len(act.all()); n != 0 {
		t.Fatalf("dead-band signals actuated %d times, want 0", n)
	}
	if st := c.Status(); st.State != StateAdapting {
		t.Fatalf("state = %s, want adapting", st.State)
	}
}

func TestDegradeOnCorruptSignalsThenRecover(t *testing.T) {
	act := &fakeActuator{}
	corrupt := errors.New("sensor on fire")
	var tick int64
	var mu sync.Mutex
	failing := true
	c := mustNew(t, testConfig(func() (Signals, error) {
		mu.Lock()
		f := failing
		mu.Unlock()
		tick++
		if f {
			return Signals{}, corrupt
		}
		return idle(tick, 4), nil
	}, act))

	// Drive it away from static first so the revert is observable.
	mu.Lock()
	failing = false
	mu.Unlock()
	for i := 0; i < 10; i++ {
		c.Tick(context.Background())
	}
	moved := c.Setpoints()
	if moved == c.Status().Static {
		t.Fatalf("precondition: controller never moved off static")
	}

	mu.Lock()
	failing = true
	mu.Unlock()
	for i := 0; i < 3; i++ { // CorruptLimit = 3
		c.Tick(context.Background())
	}
	st := c.Status()
	if st.State != StateDegraded {
		t.Fatalf("state after corruption = %s, want degraded", st.State)
	}
	got := c.Setpoints()
	want := Setpoints{Replicas: 2}
	if got != want {
		t.Fatalf("degraded setpoints = %+v, want static %+v", got, want)
	}

	// While degraded and still corrupt, nothing adapts.
	for i := 0; i < 10; i++ {
		c.Tick(context.Background())
	}
	if c.Setpoints() != want {
		t.Fatalf("degraded controller moved off static: %+v", c.Setpoints())
	}

	// Clean signals for RecoverAfter ticks resume adaptation.
	mu.Lock()
	failing = false
	mu.Unlock()
	for i := 0; i < 5; i++ {
		c.Tick(context.Background())
	}
	if st := c.Status(); st.State != StateAdapting {
		t.Fatalf("state after clean ticks = %s, want adapting", st.State)
	}
	// And the ledger tells the story.
	var sawDegrade, sawRecover bool
	for _, d := range c.Status().Decisions {
		switch d.Action {
		case ActionDegrade:
			sawDegrade = true
		case ActionRecover:
			sawRecover = true
		}
	}
	if !sawDegrade || !sawRecover {
		t.Fatalf("ledger missing degrade/recover: %+v", c.Status().Decisions)
	}
}

func TestCounterRegressionIsCorrupt(t *testing.T) {
	act := &fakeActuator{}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		s := idle(tick, 4)
		if tick > 5 {
			s.Requests = 1 // cumulative counter jumps backwards
		}
		return s, nil
	}, act))
	for i := 0; i < 12; i++ {
		c.Tick(context.Background())
	}
	if st := c.Status(); st.State != StateDegraded || st.CorruptTicks == 0 {
		t.Fatalf("regressing counters: state=%s corrupt=%d, want degraded with corrupt ticks", st.State, st.CorruptTicks)
	}
}

func TestPinOutranksAdaptationAndCorruption(t *testing.T) {
	act := &fakeActuator{}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return saturated(tick, 8), nil
	}, act))

	pinned, err := c.Pin(context.Background(), Setpoints{Replicas: 3})
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if pinned != (Setpoints{Replicas: 3}) {
		t.Fatalf("pinned = %+v", pinned)
	}
	for i := 0; i < 20; i++ {
		c.Tick(context.Background())
	}
	if c.Setpoints() != pinned {
		t.Fatalf("pinned controller moved: %+v", c.Setpoints())
	}
	if st := c.Status(); st.State != StatePinned {
		t.Fatalf("state = %s, want pinned", st.State)
	}

	c.Unpin()
	for i := 0; i < 20; i++ {
		c.Tick(context.Background())
	}
	if c.Setpoints() == pinned {
		t.Fatalf("unpinned controller never resumed adapting under saturation")
	}
}

func TestPinClampsToBounds(t *testing.T) {
	act := &fakeActuator{}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return idle(tick, 4), nil
	}, act))
	got, err := c.Pin(context.Background(), Setpoints{Replicas: 99})
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	want := Setpoints{Replicas: testBounds().MaxReplicas}
	if got != want {
		t.Fatalf("Pin clamp = %+v, want %+v", got, want)
	}
}

func TestApplyFailureKeepsSetpointsAndCoolsDown(t *testing.T) {
	act := &fakeActuator{fail: errors.New("actuator jammed")}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return saturated(tick, 8), nil
	}, act))
	before := c.Setpoints()
	for i := 0; i < 10; i++ {
		c.Tick(context.Background())
	}
	if c.Setpoints() != before {
		t.Fatalf("failed applies changed setpoints: %+v", c.Setpoints())
	}
	var failures int
	for _, d := range c.Status().Decisions {
		if d.Action == ActionApplyFailed {
			failures++
		}
	}
	if failures == 0 {
		t.Fatalf("no apply_failed decisions recorded")
	}
	if failures > 5 {
		t.Fatalf("apply failures not rate-limited by cooldown: %d in 10 ticks", failures)
	}
}

func TestControlTickFaultDegrades(t *testing.T) {
	defer faultinject.Reset()
	act := &fakeActuator{}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return idle(tick, 4), nil
	}, act))

	s := &faultinject.Script{Rules: []faultinject.Rule{{
		Point:  "control.tick",
		Action: faultinject.Fail,
		Index:  faultinject.AnyIndex,
	}}}
	if err := s.Install(); err != nil {
		t.Fatalf("install: %v", err)
	}
	for i := 0; i < 6; i++ {
		c.Tick(context.Background())
	}
	if st := c.Status(); st.State != StateDegraded {
		t.Fatalf("injected control.tick failures: state = %s, want degraded", st.State)
	}
	faultinject.Reset()
	for i := 0; i < 6; i++ {
		c.Tick(context.Background())
	}
	if st := c.Status(); st.State != StateAdapting {
		t.Fatalf("after faults cleared: state = %s, want adapting", st.State)
	}
}

func TestControlTickPanicIsContained(t *testing.T) {
	defer faultinject.Reset()
	act := &fakeActuator{}
	var tick int64
	c := mustNew(t, testConfig(func() (Signals, error) {
		tick++
		return idle(tick, 4), nil
	}, act))
	s := &faultinject.Script{Rules: []faultinject.Rule{{
		Point:  "control.tick",
		Action: faultinject.Panic,
		Index:  faultinject.AnyIndex,
	}}}
	if err := s.Install(); err != nil {
		t.Fatalf("install: %v", err)
	}
	for i := 0; i < 4; i++ {
		c.Tick(context.Background()) // must not crash the test
	}
	if st := c.Status(); st.CorruptTicks < 3 {
		t.Fatalf("panicking ticks not counted corrupt: %d", st.CorruptTicks)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	src := func() (Signals, error) { return Signals{}, nil }
	act := &fakeActuator{}
	bad := []Config{
		{Source: src},                // no actuator
		{Actuator: act},              // no source
		{Source: src, Actuator: act}, // zero bounds
		func() Config { // inverted thresholds
			c := testConfig(src, act)
			c.HighLoad, c.LowLoad = 0.2, 0.8
			return c
		}(),
		func() Config { // inverted replica bounds
			c := testConfig(src, act)
			c.Bounds.MinReplicas = 5
			c.Bounds.MaxReplicas = 2
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunTicksAndStops(t *testing.T) {
	act := &fakeActuator{}
	var tick int64
	var mu sync.Mutex
	cfg := testConfig(func() (Signals, error) {
		mu.Lock()
		tick++
		v := tick
		mu.Unlock()
		return idle(v, 4), nil
	}, act)
	cfg.Interval = time.Millisecond
	c := mustNew(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c.Run(ctx) // returns on ctx expiry
	if st := c.Status(); st.Ticks == 0 {
		t.Fatalf("Run produced no ticks")
	}
}

// TestControlImportsNoMechanism holds the controller's layering: it
// computes setpoints and acts only through Actuator, so its non-test
// code may not import the packages it steers. serve imports control, so
// a control → serve import would already be a cycle; registry and graph
// are what this test adds.
func TestControlImportsNoMechanism(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Imports) == 0 {
		t.Fatal("no imports found; the scan did not read the package")
	}
	for _, imp := range pkg.Imports {
		for _, forbidden := range []string{"internal/serve", "internal/registry", "internal/graph"} {
			if imp == forbidden || strings.HasSuffix(imp, "/"+forbidden) {
				t.Errorf("internal/control imports %s: mechanism belongs behind control.Actuator", imp)
			}
		}
	}
}
