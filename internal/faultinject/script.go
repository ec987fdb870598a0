//bitflow:keep test harness: the faultinject and conformance tests arm points through scripts
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Action is what an armed rule does when it selects a firing.
type Action string

const (
	// Panic throws from inside the hook — the consuming site's
	// resilience.Safe boundary (the one that catches real kernel panics)
	// must capture it. Only allowed at points that sit under one.
	Panic Action = "panic"
	// Fail returns an ErrInjected-wrapped error; meaningful only at
	// points whose site propagates hook errors (graph.layer,
	// registry.load, registry.swap).
	Fail Action = "fail"
	// Sleep delays the firing site by Rule.For (default 10ms) — a slow
	// stage that still completes.
	Sleep Action = "sleep"
	// Stall parks the firing site until its context is done, bounded by
	// Rule.For (default 2s), and returns the context's error once it
	// fires — a stage wedged until the request deadline kills it.
	Stall Action = "stall"
)

// AnyIndex makes a rule match events regardless of Event.Index.
const AnyIndex = -1

// Rule arms one point with one fault pattern. The rule keeps a private
// counter of the events it matches (point + Index); which of those
// firings actually fault is selected by On / Every, bounded by Limit.
type Rule struct {
	// Point names the injection point (see Points()).
	Point string
	// Action is the fault to inject; must be in the point's allowed set.
	Action Action
	// Index restricts matching to events with this Event.Index (e.g.
	// layer k for graph.layer); AnyIndex matches all.
	Index int
	// On lists 1-based matching-firing ordinals that fault. Empty means
	// "per Every".
	On []int64
	// Every faults every k-th matching firing (counting from the k-th);
	// 0 with an empty On faults every matching firing.
	Every int64
	// Limit caps the total injections from this rule; 0 is unlimited.
	Limit int64
	// For is the Sleep duration or the Stall bound.
	For time.Duration
}

func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", r.Point, r.Action)
	if r.Index != AnyIndex {
		fmt.Fprintf(&b, " index=%d", r.Index)
	}
	if len(r.On) > 0 {
		fmt.Fprintf(&b, " on=%v", r.On)
	}
	if r.Every > 0 {
		fmt.Fprintf(&b, " every=%d", r.Every)
	}
	if r.Limit > 0 {
		fmt.Fprintf(&b, " limit=%d", r.Limit)
	}
	if r.For > 0 {
		fmt.Fprintf(&b, " for=%s", r.For)
	}
	return b.String()
}

// Script is a reproducible fault schedule: the seed it was generated
// from (zero for hand-written scripts) plus the armed rules. Printing a
// Script yields everything needed to replay a failure.
type Script struct {
	Seed  int64
	Rules []Rule

	// armed holds the live per-rule counters once Install has run.
	armed []*armedRule
}

func (s *Script) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject script (seed %d, %d rules)", s.Seed, len(s.Rules))
	for i, r := range s.Rules {
		fmt.Fprintf(&b, "\n  rule %d: %s", i, r.String())
	}
	return b.String()
}

// armedRule is a Rule plus its live counters.
type armedRule struct {
	Rule
	matched  atomic.Int64
	injected atomic.Int64
}

// selects reports whether the n-th matching firing (1-based) faults.
func (ar *armedRule) selects(n int64) bool {
	if len(ar.On) > 0 {
		for _, want := range ar.On {
			if n == want {
				return true
			}
		}
		return false
	}
	if ar.Every > 0 {
		return n%ar.Every == 0
	}
	return true
}

// apply evaluates one event against the rule. acted reports whether the
// rule fired its action (err may still be nil for Sleep/Stall-without-
// cancel).
func (ar *armedRule) apply(ev Event) (acted bool, err error) {
	if ar.Index != AnyIndex && ev.Index != ar.Index {
		return false, nil
	}
	n := ar.matched.Add(1)
	if !ar.selects(n) {
		return false, nil
	}
	if shot := ar.injected.Add(1); ar.Limit > 0 && shot > ar.Limit {
		return false, nil
	}
	switch ar.Action {
	case Panic:
		panic(injectedPanic{ev: ev})
	case Fail:
		return true, fmt.Errorf("%w: %s (%s[%d])", ErrInjected, ev.Point, ev.Detail, ev.Index)
	case Sleep:
		d := ar.For
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(d)
		return true, nil
	case Stall:
		bound := ar.For
		if bound <= 0 {
			bound = 2 * time.Second
		}
		if ev.Ctx == nil {
			time.Sleep(bound)
			return true, nil
		}
		t := time.NewTimer(bound)
		defer t.Stop()
		select {
		case <-ev.Ctx.Done():
			return true, ev.Ctx.Err()
		case <-t.C:
			return true, nil
		}
	}
	return false, nil
}

// Install validates the script and arms every referenced point. Rules
// sharing a point are evaluated in script order per event; the first one
// that acts decides the outcome. Callers own cleanup via Reset (hooks
// are process-global).
func (s *Script) Install() error {
	byPoint := map[*Point][]*armedRule{}
	order := []*Point{}
	s.armed = nil
	for i := range s.Rules {
		r := s.Rules[i]
		p := Lookup(r.Point)
		if p == nil {
			return fmt.Errorf("faultinject: rule %d: unknown point %q", i, r.Point)
		}
		if !p.allows(r.Action) {
			return fmt.Errorf("faultinject: rule %d: action %q not allowed at %s (allowed: %v)",
				i, r.Action, p.name, p.allowed)
		}
		if len(byPoint[p]) == 0 {
			order = append(order, p)
		}
		ar := &armedRule{Rule: r}
		byPoint[p] = append(byPoint[p], ar)
		s.armed = append(s.armed, ar)
	}
	for _, p := range order {
		rules := byPoint[p]
		p.Set(func(ev Event) error {
			for _, ar := range rules {
				if acted, err := ar.apply(ev); acted {
					return err
				}
			}
			return nil
		})
	}
	return nil
}

// Injected totals the faults all rules have injected so far — how much
// of the schedule actually landed on this run's interleaving. Zero
// before Install.
func (s *Script) Injected() int64 {
	var total int64
	for _, ar := range s.armed {
		n := ar.injected.Load()
		if ar.Limit > 0 && n > ar.Limit {
			n = ar.Limit // the counter over-runs by the post-limit probes
		}
		total += n
	}
	return total
}

// Generate derives a random fault schedule from seed: one to four rules
// over the registry, each with an action from its point's allowed set,
// small firing ordinals, bounded delays, and a Limit so the system is
// quiet again before a run's post-fault probes. Same seed, same script.
func Generate(seed int64) *Script {
	rng := rand.New(rand.NewSource(seed))
	nRules := 1 + rng.Intn(4)
	s := &Script{Seed: seed}
	for i := 0; i < nRules; i++ {
		p := registry[rng.Intn(len(registry))]
		act := p.allowed[rng.Intn(len(p.allowed))]
		r := Rule{
			Point:  p.name,
			Action: act,
			Index:  AnyIndex,
			Limit:  int64(1 + rng.Intn(3)),
		}
		if p == GraphLayer && rng.Intn(2) == 0 {
			r.Index = rng.Intn(4) // fault at a specific shallow layer
		}
		// Pick a handful of early ordinals so faults land while the
		// workload is still running.
		nOn := 1 + rng.Intn(3)
		seen := map[int64]bool{}
		for len(seen) < nOn {
			seen[1+rng.Int63n(40)] = true
		}
		for n := range seen {
			r.On = append(r.On, n)
		}
		sort.Slice(r.On, func(a, b int) bool { return r.On[a] < r.On[b] })
		switch act {
		case Sleep:
			r.For = time.Duration(1+rng.Intn(20)) * time.Millisecond
		case Stall:
			r.For = time.Duration(100+rng.Intn(400)) * time.Millisecond
		}
		s.Rules = append(s.Rules, r)
	}
	return s
}
