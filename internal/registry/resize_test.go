package registry

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitflow/internal/resilience"
)

// resizableSet is a fakeSet that also implements ResizableReplicaSet and
// records the order of resize actuations relative to gate changes.
type resizableSet struct {
	fakeSet
	replicas  atomic.Int64
	resizeErr error
	panics    bool
	// onResize, when set, observes every Resize call (e.g. to record
	// ordering against the gate).
	onResize func(n int)
	// block, when set, is received from inside Resize — lets a test hold
	// a resize mid-flight.
	block chan struct{}
}

func (r *resizableSet) Replicas() int { return int(r.replicas.Load()) }

func (r *resizableSet) Resize(ctx context.Context, n int) error {
	if r.panics {
		panic("resize exploded")
	}
	if r.block != nil {
		select {
		case <-r.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if r.resizeErr != nil {
		return r.resizeErr
	}
	if r.onResize != nil {
		r.onResize(n)
	}
	r.replicas.Store(int64(n))
	return nil
}

func newResizableModel(replicas, limit, maxQueue int) (*Model, *resizableSet) {
	rs := &resizableSet{fakeSet: fakeSet{ver: "v1"}}
	rs.replicas.Store(int64(replicas))
	m := NewModel("m", resilience.NewResizableGate(replicas, limit, maxQueue), resilience.NewMetrics(16), rs)
	return m, rs
}

func TestResizeGrowOrdersReplicasBeforeGate(t *testing.T) {
	m, rs := newResizableModel(2, 8, 4)
	var gateAtResize int
	rs.onResize = func(n int) { gateAtResize = m.Gate().Capacity() }

	st, err := m.Resize(context.Background(), 4)
	if err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if gateAtResize != 2 {
		t.Fatalf("gate grew to %d before the replicas did — admission must never outrun serving capacity", gateAtResize)
	}
	if rs.Replicas() != 4 || m.Gate().Capacity() != 4 {
		t.Fatalf("post-grow replicas=%d gate=%d, want 4/4", rs.Replicas(), m.Gate().Capacity())
	}
	if st.Outcome != OutcomeResized || st.FromReplicas != 2 || st.ToReplicas != 4 || st.FromGate != 2 || st.ToGate != 4 {
		t.Fatalf("status = %+v", st)
	}
	if m.Resizes() != 1 || m.ResizeFailures() != 0 {
		t.Fatalf("counters: resizes=%d failures=%d", m.Resizes(), m.ResizeFailures())
	}
}

func TestResizeShrinkOrdersGateBeforeReplicas(t *testing.T) {
	m, rs := newResizableModel(4, 8, 4)
	var gateAtResize int
	rs.onResize = func(n int) { gateAtResize = m.Gate().Capacity() }

	if _, err := m.Resize(context.Background(), 2); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if gateAtResize != 2 {
		t.Fatalf("replicas shrank while the gate still admitted %d — in-flight demand could land on removed replicas", gateAtResize)
	}
}

func TestResizeShrinkBelowInFlightDemandDrains(t *testing.T) {
	m, rs := newResizableModel(4, 8, 4)
	ctx := context.Background()

	// Four in-flight requests hold all four gate tokens.
	releases := make([]func(), 0, 4)
	for i := 0; i < 4; i++ {
		if err := m.Gate().Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		_, rel := m.Acquire()
		releases = append(releases, rel)
	}

	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_, err := m.Resize(sctx, 2)
		done <- err
	}()

	// The shrink must wait for demand to drain, not drop it.
	select {
	case err := <-done:
		t.Fatalf("shrink completed with 4 requests in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	for _, rel := range releases {
		rel()
	}
	m.Gate().Release()
	m.Gate().Release()
	if err := <-done; err != nil {
		t.Fatalf("shrink after drain: %v", err)
	}
	wg.Wait()
	if rs.Replicas() != 2 || m.Gate().Capacity() != 2 {
		t.Fatalf("post-shrink replicas=%d gate=%d, want 2/2", rs.Replicas(), m.Gate().Capacity())
	}
	m.Gate().Release()
	m.Gate().Release()
}

func TestResizeSerializesWithSwap(t *testing.T) {
	m, v1 := newResizableModel(2, 8, 4)

	// Hold a Swap open mid-verification; a concurrent Resize must queue
	// behind it on the reload lock, never interleave. The assertions read
	// state the lock protects — which set the resize landed on, and the
	// swap ledger as the resize saw it from inside the lock — never the
	// order in which the two goroutines return, which the lock does not
	// decide.
	verifying := make(chan struct{})
	finish := make(chan struct{})
	var resizeDone atomic.Int64

	next := &resizableSet{fakeSet: fakeSet{ver: "v2"}}
	next.replicas.Store(2)
	var swapsAtResize int64 = -1
	var versionAtResize string
	next.onResize = func(int) {
		swapsAtResize = m.Swaps()
		versionAtResize = m.Version()
	}
	v1.onResize = func(int) { t.Error("resize landed on the retired v1 set") }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := m.Swap(context.Background(), next, func(ReplicaSet) error {
			close(verifying)
			<-finish
			return nil
		})
		if err != nil {
			t.Errorf("swap: %v", err)
		}
	}()
	<-verifying
	go func() {
		defer wg.Done()
		if _, err := m.Resize(context.Background(), 3); err != nil {
			t.Errorf("resize: %v", err)
		}
		resizeDone.Store(1)
	}()

	// Give the resize a chance to (incorrectly) run while the swap's
	// verification is still in flight.
	time.Sleep(20 * time.Millisecond)
	if resizeDone.Load() != 0 {
		t.Fatal("resize ran while a hot reload held the model")
	}
	close(finish)
	wg.Wait()
	// The resize landed on the NEW version's set, after the swap was on
	// the ledger: the swap finished before the resize started.
	if next.Replicas() != 3 || v1.Replicas() != 2 {
		t.Fatalf("post-reload resize: v1 replicas=%d v2 replicas=%d, want 2 and 3", v1.Replicas(), next.Replicas())
	}
	if swapsAtResize != 1 || versionAtResize != "v2" {
		t.Fatalf("resize ran with swaps=%d version=%q on the ledger, want 1 and v2", swapsAtResize, versionAtResize)
	}
}

func TestResizeNonResizableSetFails(t *testing.T) {
	m, _ := newTestModel("v1")
	st, err := m.Resize(context.Background(), 3)
	if err == nil {
		t.Fatal("resize of a non-resizable set accepted")
	}
	if st.Outcome != OutcomeResizeFailed || !strings.Contains(st.Reason, "does not support resizing") {
		t.Fatalf("status = %+v", st)
	}
	if m.ResizeFailures() != 1 {
		t.Fatalf("failures = %d", m.ResizeFailures())
	}
}

func TestResizePanicIsContainedAndRecorded(t *testing.T) {
	m, rs := newResizableModel(2, 8, 4)
	rs.panics = true
	st, err := m.Resize(context.Background(), 4)
	if err == nil {
		t.Fatal("panicking resize reported success")
	}
	if st.Outcome != OutcomeResizeFailed || !strings.Contains(st.Reason, "panic") {
		t.Fatalf("status = %+v", st)
	}
	// The gate was never touched (grow path: replicas first).
	if m.Gate().Capacity() != 2 {
		t.Fatalf("gate capacity = %d after failed grow, want 2", m.Gate().Capacity())
	}
}

func TestResizeErrorRecordsLandedGeometry(t *testing.T) {
	m, rs := newResizableModel(4, 8, 4)
	rs.resizeErr = errors.New("replicas wedged")
	// Shrink path: the gate shrinks first and succeeds, then the replica
	// shrink fails — the ledger must report where things actually landed.
	st, err := m.Resize(context.Background(), 2)
	if err == nil {
		t.Fatal("failing resize reported success")
	}
	if st.ToGate != 2 || st.ToReplicas != 4 {
		t.Fatalf("landed geometry = gate %d replicas %d, want gate 2 replicas 4 (partial)", st.ToGate, st.ToReplicas)
	}
	if last := m.LastResize(); last == nil || last.Outcome != OutcomeResizeFailed {
		t.Fatalf("LastResize = %+v", last)
	}
}

func TestResizeValidatesReplicaCount(t *testing.T) {
	m, _ := newResizableModel(2, 8, 4)
	if _, err := m.Resize(context.Background(), 0); err == nil {
		t.Fatal("resize to 0 replicas accepted")
	}
}

// TestResizeRaceWithAcquireAndSwap hammers Acquire/Resize/Swap
// concurrently; run under -race it proves the three paths share no
// unsynchronized state (the registry package is in verify.sh's race set).
func TestResizeRaceWithAcquireAndSwap(t *testing.T) {
	m, _ := newResizableModel(2, 8, 16)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Gate().Acquire(ctx); err != nil {
					continue
				}
				set, rel := m.Acquire()
				if rs, ok := set.(*resizableSet); ok {
					rs.use()
				}
				rel()
				m.Gate().Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{4, 1, 3, 2}
		for i := 0; i < 20; i++ {
			rctx, cancel := context.WithTimeout(ctx, time.Second)
			_, _ = m.Resize(rctx, sizes[i%len(sizes)])
			cancel()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			next := &resizableSet{fakeSet: fakeSet{ver: "vN"}}
			next.replicas.Store(int64(m.Gate().Capacity()))
			sctx, cancel := context.WithTimeout(ctx, time.Second)
			_, _ = m.Swap(sctx, next, nil)
			cancel()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Conservation: capacity and replica count still agree and are in range.
	cap := m.Gate().Capacity()
	if cap < 1 || cap > 8 {
		t.Fatalf("gate capacity %d out of range after the storm", cap)
	}
}
