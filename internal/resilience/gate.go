package resilience

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrQueueFull is returned by Gate.Acquire when the bounded wait queue is
// at capacity — the caller should shed the request immediately (HTTP 429)
// rather than let goroutines pile up.
var ErrQueueFull = errors.New("resilience: admission queue full")

// Gate is an admission controller: at most `concurrency` callers hold the
// gate at once, and at most `maxQueue` more may wait for a slot. Anything
// beyond that is rejected instantly with ErrQueueFull, and waiters give up
// when their context expires. This bounds both the resource pool AND the
// goroutine backlog, the two ways an inference server dies under overload.
type Gate struct {
	slots    chan struct{} // cap(slots) is the concurrency
	maxQueue int64
	waiting  atomic.Int64
	held     atomic.Int64
}

// NewGate builds a gate admitting `concurrency` concurrent holders
// (minimum 1) with up to `maxQueue` waiters (minimum 0). The concurrency
// is fixed for the gate's lifetime.
func NewGate(concurrency, maxQueue int) *Gate {
	if concurrency < 1 {
		concurrency = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	g := &Gate{
		slots:    make(chan struct{}, concurrency),
		maxQueue: int64(maxQueue),
	}
	for i := 0; i < concurrency; i++ {
		g.slots <- struct{}{}
	}
	return g
}

// Acquire takes a slot, waiting in the bounded queue if none is free.
// It returns nil on success (the caller MUST call Release exactly once),
// ErrQueueFull when the queue is at capacity, or ctx.Err() when the
// context is cancelled or its deadline expires while waiting.
func (g *Gate) Acquire(ctx context.Context) error {
	// Fast path: free slot, no queueing.
	select {
	case <-g.slots:
		g.held.Add(1)
		return nil
	default:
	}
	// Slow path: join the bounded queue. The increment-then-check pattern
	// admits at most maxQueue waiters; losers decrement and bail without
	// ever blocking.
	if g.waiting.Add(1) > g.maxQueue {
		g.waiting.Add(-1)
		return ErrQueueFull
	}
	defer g.waiting.Add(-1)
	select {
	case <-g.slots:
		g.held.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by a successful Acquire.
func (g *Gate) Release() {
	g.held.Add(-1)
	select {
	case g.slots <- struct{}{}:
	default:
		panic("resilience: Gate.Release without matching Acquire")
	}
}

// Waiting reports the current queue depth.
func (g *Gate) Waiting() int64 { return g.waiting.Load() }

// Held reports how many slots are currently held.
func (g *Gate) Held() int64 { return g.held.Load() }

// Capacity reports the concurrency limit.
func (g *Gate) Capacity() int { return cap(g.slots) }

// MaxQueue reports the wait-queue bound.
func (g *Gate) MaxQueue() int { return int(g.maxQueue) }
