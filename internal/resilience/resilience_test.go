package resilience

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGateFastPath(t *testing.T) {
	g := NewGate(2, 4)
	if g.Capacity() != 2 || g.MaxQueue() != 4 {
		t.Fatalf("capacity %d queue %d", g.Capacity(), g.MaxQueue())
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := g.Acquire(ctx); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if err := g.Acquire(ctx); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if got := g.Held(); got != 2 {
			t.Fatalf("held %d", got)
		}
		g.Release()
		g.Release()
	}
	if g.Held() != 0 || g.Waiting() != 0 {
		t.Fatalf("held %d waiting %d after drain", g.Held(), g.Waiting())
	}
}

func TestGateQueueFullSheds(t *testing.T) {
	g := NewGate(1, 1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue.
	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(context.Background()) }()
	waitFor(t, func() bool { return g.Waiting() == 1 })

	// The next caller must be rejected instantly, not blocked.
	start := time.Now()
	err := g.Acquire(context.Background())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("queue-full rejection blocked for %v", time.Since(start))
	}

	g.Release() // hands the slot to the waiter
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	g.Release()
}

func TestGateDeadlineWhileWaiting(t *testing.T) {
	g := NewGate(1, 4)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := g.Acquire(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if g.Waiting() != 0 {
		t.Fatalf("waiter leaked: waiting=%d", g.Waiting())
	}
}

func TestGateReleaseWithoutAcquirePanics(t *testing.T) {
	g := NewGate(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	g.Release()
}

func TestGateConcurrentStress(t *testing.T) {
	g := NewGate(4, 64)
	var wg sync.WaitGroup
	var ok, shed int64
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			err := g.Acquire(ctx)
			mu.Lock()
			if err == nil {
				ok++
			} else {
				shed++
			}
			mu.Unlock()
			if err == nil {
				time.Sleep(time.Millisecond)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no acquisitions succeeded")
	}
	if g.Held() != 0 || g.Waiting() != 0 {
		t.Fatalf("held %d waiting %d after stress", g.Held(), g.Waiting())
	}
	t.Logf("stress: %d ok, %d shed", ok, shed)
}

func TestSafeCapturesPanic(t *testing.T) {
	err := Safe(func() { panic("kernel shape mismatch") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T %v", err, err)
	}
	if pe.Value != "kernel shape mismatch" {
		t.Errorf("value %v", pe.Value)
	}
	if !strings.Contains(err.Error(), "kernel shape mismatch") {
		t.Errorf("message %q", err.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if err := Safe(func() {}); err != nil {
		t.Errorf("clean run returned %v", err)
	}
}

func TestLatencyRingQuantiles(t *testing.T) {
	r := NewLatencyRing(128)
	if got := r.Quantile(0.5); got != 0 {
		t.Fatalf("empty ring quantile %v", got)
	}
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	if r.Len() != 100 {
		t.Fatalf("len %d", r.Len())
	}
	p50 := r.Quantile(0.50)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Errorf("p50 %v", p50)
	}
	p99 := r.Quantile(0.99)
	if p99 < 95*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 %v", p99)
	}
	if got := r.Quantile(0); got != time.Millisecond {
		t.Errorf("min %v", got)
	}
	if got := r.Quantile(1); got != 100*time.Millisecond {
		t.Errorf("max %v", got)
	}
}

func TestLatencyRingWrapsKeepingRecentWindow(t *testing.T) {
	r := NewLatencyRing(16)
	for i := 1; i <= 1000; i++ {
		r.Observe(time.Duration(i) * time.Microsecond)
	}
	if r.Len() != 16 {
		t.Fatalf("len %d", r.Len())
	}
	// Window is the last 16 samples: 985..1000 µs.
	if min := r.Quantile(0); min < 985*time.Microsecond {
		t.Errorf("stale sample survived wrap: min %v", min)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics(64)
	m.Requests.Add(10)
	m.OK.Add(7)
	m.Shed.Add(2)
	m.PanicsRecovered.Add(1)
	for i := 0; i < 8; i++ {
		m.ObserveLatency(time.Duration(i+1) * time.Millisecond)
	}
	s := m.Snapshot()
	if s.Requests != 10 || s.OK != 7 || s.Shed != 2 || s.PanicsRecovered != 1 {
		t.Errorf("snapshot %+v", s)
	}
	if s.LatencySamples != 8 || s.P50Micros == 0 || s.P99Micros == 0 {
		t.Errorf("latency snapshot %+v", s)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
