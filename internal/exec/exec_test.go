package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// covered returns a coverage bitmap filled by running ParallelFor on ec.
func covered(t *testing.T, ec *Ctx, total int) []int32 {
	t.Helper()
	hits := make([]int32, total)
	ec.ParallelFor(total, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	return hits
}

func checkOnce(t *testing.T, hits []int32, label string) {
	t.Helper()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("%s: index %d covered %d times, want exactly 1", label, i, h)
		}
	}
}

// TestParallelForCoversRange proves every index runs exactly once across
// serial, pooled, default-pool and nil dispatch, at budgets around the chunk
// boundaries.
func TestParallelForCoversRange(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for _, total := range []int{1, 2, 7, 64, 1000} {
		for _, ec := range []*Ctx{nil, Serial(), Pooled(nil, 4), Pooled(p, 2), Pooled(p, 8), Threads(4)} {
			label := fmt.Sprintf("total=%d budget=%d pool=%v", total, ec.Budget(), ec.Pool() != nil)
			checkOnce(t, covered(t, ec, total), label)
		}
	}
}

// TestParallelForBudgetExceedsTotal covers the threads > total clamp.
func TestParallelForBudgetExceedsTotal(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	checkOnce(t, covered(t, Pooled(p, 64), 5), "budget 64 over total 5")
}

// TestChunkPanicReRaisedOnCaller is the regression test for the old
// parallelFor panic hole: a panic inside a worker chunk must surface as a
// panic on the caller's goroutine (where recover works), not crash the
// process, and the remaining chunks must still complete.
func TestChunkPanicReRaisedOnCaller(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, ec := range []*Ctx{Pooled(p, 4), Threads(4)} {
		var done atomic.Int32
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			ec.ParallelFor(100, func(start, end int) {
				if start == 0 {
					panic("kernel exploded")
				}
				done.Add(int32(end - start))
			})
		}()
		if recovered != "kernel exploded" {
			t.Fatalf("recovered %v, want the chunk's panic value", recovered)
		}
		if done.Load() != 75 { // chunks of 25; the panicking one covers [0,25)
			t.Fatalf("non-panicking chunks covered %d indices, want 75", done.Load())
		}
	}
}

// TestPoolSharedAcrossCallers runs many concurrent dispatches on one pool
// (the serving topology: replicas share one process-wide pool) and checks
// isolation: each dispatch sees exactly its own range.
func TestPoolSharedAcrossCallers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const callers = 8
	errc := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			ec := Pooled(p, 4)
			for iter := 0; iter < 50; iter++ {
				hits := make([]int32, 97)
				ec.ParallelFor(len(hits), func(start, end int) {
					for i := start; i < end; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						errc <- fmt.Errorf("caller %d iter %d: index %d hit %d times", c, iter, i, h)
						return
					}
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDispatchOnClosedPool: a closed pool must degrade to caller-executed
// chunks, never deadlock.
func TestDispatchOnClosedPool(t *testing.T) {
	p := NewPool(2)
	p.Close()
	checkOnce(t, covered(t, Pooled(p, 4), 50), "closed pool")
}

// TestCtxErrAndWithContext: Err is nil without a context, reflects
// cancellation with one, and WithContext derives without mutating.
func TestCtxErrAndWithContext(t *testing.T) {
	base := Threads(2)
	if err := base.Err(); err != nil {
		t.Fatalf("bare ctx Err = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	derived := base.WithContext(ctx)
	if err := derived.Err(); err != nil {
		t.Fatalf("pre-cancel Err = %v, want nil", err)
	}
	cancel()
	if !errors.Is(derived.Err(), context.Canceled) {
		t.Fatalf("post-cancel Err = %v, want context.Canceled", derived.Err())
	}
	if base.Err() != nil {
		t.Fatal("WithContext mutated its receiver")
	}
	if base.Budget() != derived.Budget() || derived.Pool() != base.Pool() {
		t.Fatal("WithContext dropped dispatch configuration")
	}
}

// TestReset: Reset re-derives a context in place. It keeps the base's
// dispatch configuration and observer, observes the new context, treats
// a nil base as Serial, and allocates nothing.
func TestReset(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	obs := func(string, string, time.Duration) {}
	base := Pooled(p, 3).WithObserver(obs)
	ctx, cancel := context.WithCancel(context.Background())
	var c Ctx
	c.Reset(base, ctx)
	if c.Budget() != 3 || c.Pool() != p || c.Observer() == nil || c.Context() != ctx {
		t.Fatal("Reset dropped the base's configuration or the new context")
	}
	cancel()
	if !errors.Is(c.Err(), context.Canceled) || base.Err() != nil {
		t.Fatal("Reset's context is not the one cancelled, or the base observes it")
	}
	c.Reset(nil, context.Background())
	if c.Budget() != 1 || c.Pool() != nil || c.Observer() != nil || c.Err() != nil {
		t.Fatal("Reset from a nil base is not Serial")
	}
	if n := testing.AllocsPerRun(10, func() { c.Reset(base, ctx) }); n != 0 {
		t.Fatalf("Reset allocates %v times, want 0", n)
	}
}

// TestWithObserver: the derived ctx carries the observer; nil and base
// ctxs do not.
func TestWithObserver(t *testing.T) {
	var calls atomic.Int32
	obs := func(layer, kind string, d time.Duration) { calls.Add(1) }
	ec := Serial().WithObserver(obs)
	if ec.Observer() == nil {
		t.Fatal("observer not attached")
	}
	ec.Observer()("conv1", "conv", time.Millisecond)
	if calls.Load() != 1 {
		t.Fatal("observer not invoked")
	}
	if Serial().Observer() != nil || (*Ctx)(nil).Observer() != nil {
		t.Fatal("unattached ctx reports an observer")
	}
}

// TestInline: the inline copy runs one chunk on the caller and keeps the
// cancellation context and observer; the receiver keeps its pool.
func TestInline(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	base := Pooled(p, 3).WithContext(ctx).WithObserver(func(string, string, time.Duration) {})
	in := base.Inline()
	if in.Budget() != 1 || in.Pool() != nil {
		t.Fatalf("Inline budget %d pool %v, want 1 and nil", in.Budget(), in.Pool())
	}
	if base.Budget() != 3 || base.Pool() != p {
		t.Fatal("Inline mutated its receiver")
	}
	chunks := 0
	in.ParallelFor(7, func(start, end int) {
		if start != 0 || end != 7 {
			t.Fatalf("inline chunk [%d,%d), want [0,7)", start, end)
		}
		chunks++
	})
	if chunks != 1 {
		t.Fatalf("inline ctx ran %d chunks, want 1", chunks)
	}
	cancel()
	if !errors.Is(in.Err(), context.Canceled) || in.Observer() == nil {
		t.Fatal("Inline dropped the cancellation context or the observer")
	}
	if (*Ctx)(nil).Inline().Budget() != 1 {
		t.Fatal("nil ctx Inline is not serial")
	}
}

// TestNilCtxIsSerial: nil receivers must behave as a serial context.
func TestNilCtxIsSerial(t *testing.T) {
	var ec *Ctx
	if ec.Budget() != 1 || ec.Err() != nil || ec.Pool() != nil || ec.Context() != nil {
		t.Fatal("nil ctx accessors are not serial defaults")
	}
	ran := false
	ec.ParallelFor(3, func(start, end int) {
		if start != 0 || end != 3 {
			t.Fatalf("nil ctx chunk [%d,%d), want [0,3)", start, end)
		}
		ran = true
	})
	if !ran {
		t.Fatal("nil ctx did not run the body")
	}
}

// TestPoolReport: counters move and identity fields are filled.
func TestPoolReport(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.SetSource("test")
	Pooled(p, 2).ParallelFor(100, func(start, end int) {})
	r := p.Report()
	if r.Workers != 2 || r.Source != "test" || r.GOMAXPROCS < 1 || r.NumCPU < 1 {
		t.Fatalf("bad report identity: %+v", r)
	}
	if r.Dispatches < 1 {
		t.Fatalf("dispatches = %d, want ≥ 1", r.Dispatches)
	}
}

// TestDefaultPool: lazily built once, GOMAXPROCS-sized.
func TestDefaultPool(t *testing.T) {
	a, b := Default(), Default()
	if a != b {
		t.Fatal("Default() not a singleton")
	}
	if a.Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
}

// TestSerialBitExactChunking: pooled and serial execution must write the
// same values when the body is chunk-independent (the invariant the
// graph's threads-agree tests pin end to end).
func TestSerialBitExactChunking(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const total = 777
	want := make([]int, total)
	Serial().ParallelFor(total, func(s, e int) {
		for i := s; i < e; i++ {
			want[i] = i * i
		}
	})
	got := make([]int, total)
	Pooled(p, 5).ParallelFor(total, func(s, e int) {
		for i := s; i < e; i++ {
			got[i] = i * i
		}
	})
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("index %d: %d vs %d", i, want[i], got[i])
		}
	}
}
