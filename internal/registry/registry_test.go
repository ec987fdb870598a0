package registry

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitflow/internal/faultinject"
	"bitflow/internal/resilience"
)

// fakeSet is a ReplicaSet that records its lifecycle so tests can
// assert the swap protocol's core promise: a set is retired exactly
// once, and never while a request is using it.
type fakeSet struct {
	ver     string
	retired atomic.Bool
	retires atomic.Int64
	// using counts requests actively inside the set; Retire fails the
	// test via retiredInUse if any are present.
	using        atomic.Int64
	retiredInUse atomic.Bool
	retireErr    error
	retirePanics bool
}

func (f *fakeSet) Version() string { return f.ver }

func (f *fakeSet) Retire(ctx context.Context) error {
	if f.using.Load() != 0 {
		f.retiredInUse.Store(true)
	}
	f.retired.Store(true)
	f.retires.Add(1)
	if f.retirePanics {
		panic("retire exploded")
	}
	return f.retireErr
}

// use simulates one request touching the set, flagging use-after-retire.
func (f *fakeSet) use() bool {
	if f.retired.Load() {
		return false
	}
	f.using.Add(1)
	runtime.Gosched()
	ok := !f.retired.Load()
	f.using.Add(-1)
	return ok
}

func newTestModel(ver string) (*Model, *fakeSet) {
	fs := &fakeSet{ver: ver}
	m := NewModel("m", resilience.NewGate(2, 4), resilience.NewMetrics(16), fs)
	return m, fs
}

func TestAcquireReturnsCurrent(t *testing.T) {
	m, fs := newTestModel("v1")
	pin := m.Acquire()
	set, release := pin.Set(), pin.Release
	if set != fs {
		t.Fatalf("Acquire returned %v, want initial set", set)
	}
	release()
	if got := m.Version(); got != "v1" {
		t.Errorf("Version() = %q", got)
	}
}

func TestSwapHappyPath(t *testing.T) {
	m, old := newTestModel("v1")
	next := &fakeSet{ver: "v2"}
	verified := false
	st, err := m.Swap(context.Background(), next, func(rs ReplicaSet) error {
		verified = rs == next
		return nil
	})
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if !verified {
		t.Error("verify callback did not see the candidate")
	}
	if st.Outcome != OutcomeSwapped || st.From != "v1" || st.To != "v2" || st.Stage != "" {
		t.Errorf("status %+v", st)
	}
	if m.Current() != next {
		t.Error("current set is not the candidate")
	}
	if !old.retired.Load() || old.retires.Load() != 1 {
		t.Errorf("old set retired=%v times=%d", old.retired.Load(), old.retires.Load())
	}
	if next.retired.Load() {
		t.Error("candidate was retired")
	}
	if m.Swaps() != 1 || m.Rollbacks() != 0 {
		t.Errorf("swaps=%d rollbacks=%d", m.Swaps(), m.Rollbacks())
	}
	if got := m.LastReload(); got != st {
		t.Error("LastReload does not return the final status")
	}
}

func TestSwapVerifyErrorRollsBack(t *testing.T) {
	m, old := newTestModel("v1")
	next := &fakeSet{ver: "v2"}
	boom := errors.New("bad probe")
	st, err := m.Swap(context.Background(), next, func(ReplicaSet) error { return boom })
	if err == nil {
		t.Fatal("Swap succeeded past a failing verify")
	}
	var re *ReloadError
	if !errors.As(err, &re) || re.Stage != StageVerify || !errors.Is(err, boom) {
		t.Fatalf("error %v", err)
	}
	if st.Outcome != OutcomeRolledBack || st.Stage != StageVerify || !strings.Contains(st.Reason, "bad probe") {
		t.Errorf("status %+v", st)
	}
	if m.Current() != old || old.retired.Load() {
		t.Error("old version disturbed by failed verify")
	}
	if !next.retired.Load() {
		t.Error("rejected candidate not retired")
	}
	if m.Rollbacks() != 1 {
		t.Errorf("rollbacks=%d", m.Rollbacks())
	}
}

func TestSwapVerifyPanicRollsBack(t *testing.T) {
	m, old := newTestModel("v1")
	next := &fakeSet{ver: "v2"}
	st, err := m.Swap(context.Background(), next, func(ReplicaSet) error { panic("verify exploded") })
	if err == nil {
		t.Fatal("Swap succeeded past a panicking verify")
	}
	if st.Outcome != OutcomeRolledBack || st.Stage != StageVerify {
		t.Errorf("status %+v", st)
	}
	if m.Current() != old {
		t.Error("panic in verify moved the pointer")
	}
	if !next.retired.Load() {
		t.Error("candidate not retired after verify panic")
	}
}

// TestSwapPanicAcrossStages drives the registry.swap injection point
// through each stage: panic pre-verify (0), pre-flip (1), and post-flip
// (2) must all end with the old version current and the candidate
// retired — index 2 is the hard case, where requests may already have
// pinned the candidate before the rollback un-flips it.
func TestSwapPanicAcrossStages(t *testing.T) {
	for idx := 0; idx <= 2; idx++ {
		t.Run(fmt.Sprintf("stage%d", idx), func(t *testing.T) {
			defer faultinject.Reset()
			target := idx
			faultinject.RegistrySwap.Set(func(ev faultinject.Event) error {
				if ev.Index == target {
					panic(fmt.Sprintf("injected at stage %d", target))
				}
				return nil
			})
			m, old := newTestModel("v1")
			next := &fakeSet{ver: "v2"}
			st, err := m.Swap(context.Background(), next, func(ReplicaSet) error { return nil })
			if err == nil {
				t.Fatal("Swap succeeded through an injected panic")
			}
			wantStage := StageSwap
			if target == 0 {
				wantStage = StageVerify
			}
			var re *ReloadError
			if !errors.As(err, &re) || re.Stage != wantStage {
				t.Fatalf("error %v, want stage %s", err, wantStage)
			}
			if st.Outcome != OutcomeRolledBack {
				t.Errorf("status %+v", st)
			}
			if m.Current() != old {
				t.Errorf("stage %d: old version not current after rollback", target)
			}
			if old.retired.Load() {
				t.Errorf("stage %d: rollback retired the old (still serving) set", target)
			}
			if !next.retired.Load() {
				t.Errorf("stage %d: candidate not retired", target)
			}
			// The model must still be fully operational: a clean swap after
			// the rollback succeeds.
			faultinject.Reset()
			clean := &fakeSet{ver: "v3"}
			if _, err := m.Swap(context.Background(), clean, nil); err != nil {
				t.Fatalf("stage %d: swap after rollback: %v", target, err)
			}
			if m.Current() != clean {
				t.Errorf("stage %d: recovery swap did not land", target)
			}
		})
	}
}

func TestSwapInjectedFailErrorRollsBack(t *testing.T) {
	defer faultinject.Reset()
	faultinject.RegistrySwap.Set(func(ev faultinject.Event) error {
		if ev.Index == 2 {
			return fmt.Errorf("%w: post-flip check failed", faultinject.ErrInjected)
		}
		return nil
	})
	m, old := newTestModel("v1")
	next := &fakeSet{ver: "v2"}
	_, err := m.Swap(context.Background(), next, nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error %v", err)
	}
	if m.Current() != old || !next.retired.Load() {
		t.Error("post-flip injected error did not roll back cleanly")
	}
}

func TestSwapDrainWaitsForPinnedRequests(t *testing.T) {
	m, old := newTestModel("v1")
	pin := m.Acquire()
	set, release := pin.Set(), pin.Release
	if set != old {
		t.Fatal("pinned the wrong set")
	}
	done := make(chan *ReloadStatus, 1)
	go func() {
		st, err := m.Swap(context.Background(), &fakeSet{ver: "v2"}, nil)
		if err != nil {
			t.Errorf("Swap: %v", err)
		}
		done <- st
	}()
	// The swap must not retire the old set while the pin is held. Give
	// the drain loop time to (incorrectly) fire.
	time.Sleep(20 * time.Millisecond)
	if old.retired.Load() {
		t.Fatal("old set retired while a request still pinned it")
	}
	select {
	case <-done:
		t.Fatal("Swap returned before the pinned request released")
	default:
	}
	release()
	st := <-done
	if st.Outcome != OutcomeSwapped {
		t.Errorf("status %+v", st)
	}
	if !old.retired.Load() {
		t.Error("old set not retired after drain")
	}
}

func TestSwapDrainTimeoutLeavesFlipStanding(t *testing.T) {
	m, old := newTestModel("v1")
	release := m.Acquire().Release // never released before the deadline
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	next := &fakeSet{ver: "v2"}
	st, err := m.Swap(ctx, next, nil)
	var re *ReloadError
	if !errors.As(err, &re) || re.Stage != StageDrain {
		t.Fatalf("error %v, want drain-stage ReloadError", err)
	}
	if st.Outcome != OutcomeSwapped || st.Stage != StageDrain || st.Reason == "" {
		t.Errorf("status %+v", st)
	}
	if m.Current() != next {
		t.Error("drain timeout must not un-flip the swap")
	}
	if old.retired.Load() {
		t.Error("old set retired despite live pin")
	}
	if m.Swaps() != 1 {
		t.Errorf("swaps=%d", m.Swaps())
	}
	release()
}

func TestSwapRetirePanicIsContained(t *testing.T) {
	m, old := newTestModel("v1")
	old.retirePanics = true
	next := &fakeSet{ver: "v2"}
	st, err := m.Swap(context.Background(), next, nil)
	if err != nil {
		t.Fatalf("a panicking Retire must not fail the swap: %v", err)
	}
	if st.Outcome != OutcomeSwapped || m.Current() != next {
		t.Errorf("status %+v current %v", st, m.Current())
	}
}

// TestAcquireNeverSeesRetiredSet hammers Acquire/release from many
// goroutines while versions swap continuously underneath: no request
// may ever observe a set that was already retired, and every set must
// be retired at most once. Run with -race.
func TestAcquireNeverSeesRetiredSet(t *testing.T) {
	m, first := newTestModel("v0")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := m.Acquire()
				set, release := pin.Set(), pin.Release
				if !set.(*fakeSet).use() {
					bad.Add(1)
				}
				release()
			}
		}()
	}
	sets := []*fakeSet{first}
	for i := 1; i <= 50; i++ {
		next := &fakeSet{ver: fmt.Sprintf("v%d", i)}
		sets = append(sets, next)
		if _, err := m.Swap(context.Background(), next, nil); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d acquisitions touched a retired set", n)
	}
	for i, fs := range sets {
		if fs.retiredInUse.Load() {
			t.Errorf("set %d was retired while in use", i)
		}
		if n := fs.retires.Load(); i < len(sets)-1 && n != 1 {
			t.Errorf("set %d retired %d times", i, n)
		}
	}
	if last := sets[len(sets)-1]; last.retired.Load() {
		t.Error("current set was retired")
	}
}

// TestSwapRollbackUnderLoad injects a post-flip panic while requests
// hammer the model: the rollback must drain whoever pinned the
// candidate in the flip window and land back on the old version with
// zero use-after-retire.
func TestSwapRollbackUnderLoad(t *testing.T) {
	defer faultinject.Reset()
	m, old := newTestModel("v1")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := m.Acquire()
				set, release := pin.Set(), pin.Release
				if !set.(*fakeSet).use() {
					bad.Add(1)
				}
				release()
			}
		}()
	}
	faultinject.RegistrySwap.Set(func(ev faultinject.Event) error {
		if ev.Index == 2 {
			// Widen the post-flip window so requests actually pin the
			// candidate before the panic unwinds the swap.
			time.Sleep(5 * time.Millisecond)
			panic("injected post-flip crash")
		}
		return nil
	})
	for i := 0; i < 5; i++ {
		next := &fakeSet{ver: fmt.Sprintf("bad%d", i)}
		_, err := m.Swap(context.Background(), next, nil)
		if err == nil {
			t.Fatal("injected swap succeeded")
		}
		if m.Current() != old {
			t.Fatal("rollback did not restore the old version")
		}
		if !next.retired.Load() || next.retiredInUse.Load() {
			t.Fatalf("candidate %d: retired=%v inUse=%v", i, next.retired.Load(), next.retiredInUse.Load())
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d acquisitions touched a retired set", n)
	}
	if old.retired.Load() {
		t.Error("serving set was retired by rollbacks")
	}
}

func TestCloseRetiresCurrent(t *testing.T) {
	m, fs := newTestModel("v1")
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !fs.retired.Load() {
		t.Error("Close did not retire the set")
	}
}
