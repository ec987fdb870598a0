package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Allowed lists the script actions that are meaningful at this point —
// the ones whose failure mode the consuming site is built to absorb.
func (p *Point) Allowed() []Action { return append([]Action(nil), p.allowed...) }

// Enabled reports whether a hook is currently installed.
func (p *Point) Enabled() bool { return p.hook.Load() != nil }

func TestDisarmedFireIsNil(t *testing.T) {
	for _, p := range Points() {
		if p.Enabled() {
			t.Fatalf("%s enabled at process start", p.Name())
		}
		if err := p.Fire(context.Background(), "x", 3); err != nil {
			t.Fatalf("%s disarmed Fire returned %v", p.Name(), err)
		}
	}
}

func TestHookSeesEvent(t *testing.T) {
	defer Reset()
	var got Event
	GraphLayer.Set(func(ev Event) error {
		got = ev
		return nil
	})
	if !GraphLayer.Enabled() {
		t.Fatal("Set did not enable the point")
	}
	ctx := context.Background()
	if err := GraphLayer.Fire(ctx, "conv1", 2); err != nil {
		t.Fatal(err)
	}
	if got.Point != "graph.layer" || got.Detail != "conv1" || got.Index != 2 || got.Ctx != ctx {
		t.Errorf("event %+v", got)
	}
	GraphLayer.Clear()
	if GraphLayer.Enabled() {
		t.Error("Clear left the point enabled")
	}
}

func TestLookupAndRegistry(t *testing.T) {
	if Lookup("graph.layer") != GraphLayer {
		t.Error("Lookup(graph.layer)")
	}
	if Lookup("no.such.point") != nil {
		t.Error("Lookup of unknown point should be nil")
	}
	seen := map[string]bool{}
	for _, p := range Points() {
		if seen[p.Name()] {
			t.Errorf("duplicate point %s", p.Name())
		}
		seen[p.Name()] = true
		if len(p.Allowed()) == 0 {
			t.Errorf("%s has no allowed actions", p.Name())
		}
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	for _, p := range Points() {
		p.Set(func(Event) error { return ErrInjected })
	}
	Reset()
	for _, p := range Points() {
		if p.Enabled() {
			t.Errorf("%s still armed after Reset", p.Name())
		}
	}
}

func TestScriptOrdinalSelection(t *testing.T) {
	defer Reset()
	s := &Script{Rules: []Rule{{
		Point: "graph.layer", Action: Fail, Index: AnyIndex, On: []int64{2, 4},
	}}}
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, GraphLayer.Fire(nil, "l", i))
	}
	for i, want := range []bool{false, true, false, true, false} {
		if got := errs[i] != nil; got != want {
			t.Errorf("firing %d: injected=%v want %v", i+1, got, want)
		}
		if errs[i] != nil && !errors.Is(errs[i], ErrInjected) {
			t.Errorf("firing %d: error %v not ErrInjected", i+1, errs[i])
		}
	}
	if got := s.Injected(); got != 2 {
		t.Errorf("Injected() = %d, want 2", got)
	}
}

func TestScriptEveryAndLimit(t *testing.T) {
	defer Reset()
	s := &Script{Rules: []Rule{{
		Point: "graph.layer", Action: Fail, Index: AnyIndex, Every: 2, Limit: 2,
	}}}
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	injected := 0
	for i := 0; i < 10; i++ {
		if GraphLayer.Fire(nil, "l", i) != nil {
			injected++
		}
	}
	if injected != 2 {
		t.Errorf("injected %d faults, want 2 (every 2nd, limit 2)", injected)
	}
	if got := s.Injected(); got != 2 {
		t.Errorf("Injected() = %d, want 2", got)
	}
}

func TestScriptIndexMatch(t *testing.T) {
	defer Reset()
	s := &Script{Rules: []Rule{{
		Point: "graph.layer", Action: Fail, Index: 3,
	}}}
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	if err := GraphLayer.Fire(nil, "l", 2); err != nil {
		t.Errorf("index 2 faulted: %v", err)
	}
	if err := GraphLayer.Fire(nil, "l", 3); err == nil {
		t.Error("index 3 did not fault")
	}
}

func TestScriptPanicAction(t *testing.T) {
	defer Reset()
	s := &Script{Rules: []Rule{{Point: "graph.layer", Action: Panic, Index: AnyIndex}}}
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Panic action did not panic")
		}
		if !strings.Contains(fmt.Sprint(v), "injected panic at graph.layer") {
			t.Errorf("panic value %v", v)
		}
	}()
	GraphLayer.Fire(nil, "conv1", 0)
}

func TestScriptStallBlocksUntilCtxDone(t *testing.T) {
	defer Reset()
	s := &Script{Rules: []Rule{{
		Point: "graph.layer", Action: Stall, Index: AnyIndex, For: 5 * time.Second,
	}}}
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := GraphLayer.Fire(ctx, "l", 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stall returned %v, want DeadlineExceeded", err)
	}
	if el := time.Since(t0); el < 20*time.Millisecond || el > 3*time.Second {
		t.Errorf("stall lasted %v, want ~30ms", el)
	}
}

func TestScriptStallBoundedWithoutCtx(t *testing.T) {
	defer Reset()
	s := &Script{Rules: []Rule{{
		Point: "exec.chunk", Action: Stall, Index: AnyIndex, For: 20 * time.Millisecond,
	}}}
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := ExecChunk.Fire(nil, "", 0); err != nil {
		t.Errorf("ctx-less stall returned %v", err)
	}
	if el := time.Since(t0); el < 15*time.Millisecond {
		t.Errorf("ctx-less stall returned after %v, want >= 20ms", el)
	}
}

func TestScriptRejectsUnknownPointAndBadAction(t *testing.T) {
	if err := (&Script{Rules: []Rule{{Point: "nope", Action: Fail}}}).Install(); err == nil {
		t.Error("unknown point accepted")
	}
	// serve.admit sits above the Safe boundary: Panic must be rejected.
	if err := (&Script{Rules: []Rule{{Point: "serve.admit", Action: Panic}}}).Install(); err == nil {
		t.Error("disallowed action accepted")
	}
	Reset()
}

func TestScriptConcurrentFiringsRace(t *testing.T) {
	defer Reset()
	s := &Script{Rules: []Rule{{
		Point: "exec.chunk", Action: Sleep, Index: AnyIndex, For: time.Microsecond, Every: 3,
	}}}
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ExecChunk.Fire(context.Background(), "", i)
			}
		}()
	}
	wg.Wait()
	// 400 matching firings, every 3rd sleeps.
	if got := s.Injected(); got != 133 {
		t.Errorf("Injected() = %d, want 133", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(12345), Generate(12345)
	if a.String() != b.String() {
		t.Errorf("Generate not deterministic:\n%s\nvs\n%s", a, b)
	}
	c := Generate(54321)
	if a.String() == c.String() {
		t.Error("different seeds produced identical scripts")
	}
	for seed := int64(0); seed < 200; seed++ {
		s := Generate(seed)
		if len(s.Rules) == 0 {
			t.Fatalf("seed %d: empty script", seed)
		}
		if err := s.Install(); err != nil {
			t.Fatalf("seed %d: generated script invalid: %v\n%s", seed, err, s)
		}
		Reset()
	}
}

func TestScriptStringIsReplayable(t *testing.T) {
	s := Generate(7)
	out := s.String()
	if !strings.Contains(out, "seed 7") {
		t.Errorf("script print lacks seed: %s", out)
	}
	for _, r := range s.Rules {
		if !strings.Contains(out, r.Point) {
			t.Errorf("script print lacks point %s: %s", r.Point, out)
		}
	}
}
