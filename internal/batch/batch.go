// Package batch implements dynamic micro-batching for inference: it
// coalesces concurrent single-image requests into batches under a time
// window and a size cap, dispatches each batch to a runner (the batched
// forward path, graph.InferBatch), and fans the per-image results back to
// the callers. The subsystem boundary is deliberate: this package owns
// coalescing policy and request lifetimes, internal/graph owns the batched
// compute, and internal/serve owns admission and the HTTP surface.
//
// The scheduler favors latency over occupancy: a batch is dispatched as
// soon as it fills (size cap) or its window expires, whichever comes
// first, so an idle server serves a lone request after at most one window.
// Callers that give up mid-window (context cancellation) leave the batch
// without poisoning it — their slot is dropped at assembly time and every
// other request proceeds. Panics in the runner are captured with
// resilience.Safe, fail only the requests of the affected batch, and the
// worker re-clones its runner before accepting the next batch.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bitflow/internal/faultinject"
	"bitflow/internal/resilience"
	"bitflow/internal/tensor"
)

var (
	// ErrQueueFull is returned by Submit when the pending queue is at
	// capacity — the caller should shed load (HTTP 429).
	ErrQueueFull = errors.New("batch: queue full")
	// ErrClosed is returned by Submit once Close has begun.
	ErrClosed = errors.New("batch: batcher closed")
)

// InputError marks a request rejected by per-item validation before it
// ever entered a batch. The batch it would have joined is unaffected.
type InputError struct {
	Err error
}

func (e *InputError) Error() string { return fmt.Sprintf("batch: bad input: %v", e.Err) }

func (e *InputError) Unwrap() error { return e.Err }

// Runner executes one assembled batch. Implementations must return one
// output per input, in order. A Runner is owned by exactly one worker at a
// time and need not be safe for concurrent use. *graph.Network satisfies
// the interface directly.
type Runner interface {
	InferBatch(xs []*tensor.Tensor) ([][]float32, error)
}

// Config parameterizes a Batcher. NewRunner is the only required field.
type Config struct {
	// Window bounds how long the first request of a batch waits for
	// company. Default 2ms.
	Window time.Duration
	// MaxBatch caps the batch size; a full batch dispatches immediately.
	// Default 8.
	MaxBatch int
	// Workers is the number of concurrent batch runners. Default 1 —
	// right for single-socket deployments where one batch's lanes
	// already use every core.
	Workers int
	// QueueCap bounds the pending-request queue. Submit sheds with
	// ErrQueueFull beyond it. Default Workers × MaxBatch × 2.
	QueueCap int
	// NewRunner builds a runner for a worker — called once per worker at
	// start, again after a captured panic (so a poisoned runner is
	// replaced instead of reused), and for each worker a Resize grow adds.
	NewRunner func() (Runner, error)
	// VerifyRunner, when set, validates a runner built during a Resize
	// grow before it serves traffic (e.g. a bit-exactness probe against a
	// reference replica). It runs off the hot path. Optional.
	VerifyRunner func(Runner) error
	// Check validates one input before it is enqueued (e.g. the
	// composition of graph.CheckInput and a finite scan). A non-nil
	// return fails only that request, wrapped in *InputError. Optional.
	Check func(x *tensor.Tensor) error
	// Metrics receives batch occupancy/flush-reason observations and
	// panic counts. Optional.
	Metrics *resilience.Metrics
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = c.Workers * c.MaxBatch * 2
	}
	return c
}

// result is what a request's future resolves to.
type result struct {
	out []float32
	err error
}

// request is one caller's seat in the queue. done is buffered so a worker
// can always complete a request whose caller already gave up; completed
// makes completion exactly-once.
type request struct {
	ctx       context.Context
	x         *tensor.Tensor
	done      chan result
	completed atomic.Bool
}

// complete resolves the future exactly once; later calls are no-ops.
func (r *request) complete(out []float32, err error) {
	if r.completed.CompareAndSwap(false, true) {
		r.done <- result{out: out, err: err}
	}
}

// Batcher coalesces Submit calls into batches and runs them on a pool of
// workers. Create with New; stop with Close.
//
// The coalescing parameters (window, max-batch) and the worker count are
// runtime control variables: Retune and Resize adjust them on a live
// batcher without interrupting service. Batches already assembling finish
// under the parameters they started with.
type Batcher struct {
	cfg   Config
	queue chan *request

	windowNanos atomic.Int64 // current coalescing window, ns
	maxBatch    atomic.Int64 // current size cap
	live        atomic.Int64 // workers currently running
	target      atomic.Int64 // workers Resize wants running
	retire      chan struct{} // wakes idle workers so a shrink can retire them

	resizeMu sync.Mutex   // serializes Resize calls
	mu       sync.RWMutex // guards closed vs. sends on queue and worker spawns
	closed   bool

	closing chan struct{} // closed by Close: workers switch to drain mode
	wg      sync.WaitGroup
}

// New builds and starts a Batcher. Each worker constructs its own runner
// via cfg.NewRunner before New returns, so a broken model surfaces here
// rather than on the first request.
func New(cfg Config) (*Batcher, error) {
	cfg = cfg.withDefaults()
	if cfg.NewRunner == nil {
		return nil, errors.New("batch: Config.NewRunner is required")
	}
	b := &Batcher{
		cfg:     cfg,
		queue:   make(chan *request, cfg.QueueCap),
		retire:  make(chan struct{}, 1),
		closing: make(chan struct{}),
	}
	b.windowNanos.Store(int64(cfg.Window))
	b.maxBatch.Store(int64(cfg.MaxBatch))
	b.target.Store(int64(cfg.Workers))
	runners := make([]Runner, cfg.Workers)
	for i := range runners {
		r, err := cfg.NewRunner()
		if err != nil {
			return nil, fmt.Errorf("batch: worker %d runner: %w", i, err)
		}
		runners[i] = r
	}
	for _, r := range runners {
		b.live.Add(1)
		b.wg.Add(1)
		go b.worker(r)
	}
	return b, nil
}

// Retune atomically replaces the coalescing window and size cap. The next
// batch to start assembling uses the new parameters; a batch mid-assembly
// finishes under the old ones. Both values must be positive.
func (b *Batcher) Retune(window time.Duration, maxBatch int) error {
	if window <= 0 {
		return fmt.Errorf("batch: retune window %v: must be > 0", window)
	}
	if maxBatch < 1 {
		return fmt.Errorf("batch: retune max-batch %d: must be ≥ 1", maxBatch)
	}
	b.windowNanos.Store(int64(window))
	b.maxBatch.Store(int64(maxBatch))
	return nil
}

// Params reports the current coalescing window, size cap, and live worker
// count.
func (b *Batcher) Params() (window time.Duration, maxBatch, workers int) {
	return time.Duration(b.windowNanos.Load()), int(b.maxBatch.Load()), int(b.live.Load())
}

// Resize grows or shrinks the worker pool to n on a live batcher. Growing
// builds fresh runners via cfg.NewRunner (optionally validated by
// cfg.VerifyRunner) and starts them immediately. Shrinking is graceful:
// surplus workers retire between batches, never mid-batch, so no request
// is dropped; Resize waits for the count to land, bounded by ctx. On a
// partial grow failure the workers already started stay.
func (b *Batcher) Resize(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("batch: resize to %d workers: must be ≥ 1", n)
	}
	b.resizeMu.Lock()
	defer b.resizeMu.Unlock()
	b.mu.RLock()
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	cur := int(b.live.Load())
	b.target.Store(int64(n))
	if n > cur {
		for i := cur; i < n; i++ {
			r, err := b.cfg.NewRunner()
			if err != nil {
				b.target.Store(int64(i))
				return fmt.Errorf("batch: resize worker %d runner: %w", i, err)
			}
			if v := b.cfg.VerifyRunner; v != nil {
				if err := v(r); err != nil {
					b.target.Store(int64(i))
					return fmt.Errorf("batch: resize worker %d failed verification: %w", i, err)
				}
			}
			b.mu.RLock()
			if b.closed {
				b.mu.RUnlock()
				b.target.Store(int64(i))
				return ErrClosed
			}
			b.live.Add(1)
			b.wg.Add(1)
			go b.worker(r)
			b.mu.RUnlock()
		}
		return nil
	}
	// Shrink: nudge an idle worker awake; busy workers notice the target
	// when they return to their select loop. Keep nudging until the live
	// count lands (a nudge can be consumed by a worker that then loses the
	// retire race) or ctx gives up — in which case the new, lower target
	// stays and remaining surplus workers retire as they go idle.
	for b.live.Load() > int64(n) {
		select {
		case b.retire <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("batch: shrink %d→%d interrupted at %d live: %w", cur, n, b.live.Load(), ctx.Err())
		case <-b.closing:
			return nil
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// tryRetire atomically claims one retirement slot. It fails when the pool
// is already at (or below) the target, so a stale nudge never over-shrinks.
func (b *Batcher) tryRetire() bool {
	for {
		live := b.live.Load()
		if live <= b.target.Load() || live <= 1 {
			return false
		}
		if b.live.CompareAndSwap(live, live-1) {
			return true
		}
	}
}

// Submit enqueues one inference request and blocks until its batch has
// run or ctx is done. On cancellation the caller gets ctx's error
// immediately; the abandoned seat is discarded when its batch assembles
// and never poisons the other requests.
func (b *Batcher) Submit(ctx context.Context, x *tensor.Tensor) ([]float32, error) {
	if check := b.cfg.Check; check != nil {
		if err := check(x); err != nil {
			return nil, &InputError{Err: err}
		}
	}
	req := &request{ctx: ctx, x: x, done: make(chan result, 1)}

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		return nil, ErrQueueFull
	}

	select {
	case res := <-req.done:
		return res.out, res.err
	case <-ctx.Done():
		// Mark the seat abandoned so the worker drops it at assembly. If
		// the worker won the race and completed it first, return the real
		// result — it is already paid for.
		if !req.completed.CompareAndSwap(false, true) {
			res := <-req.done
			return res.out, res.err
		}
		return nil, ctx.Err()
	}
}

// Close stops admission, flushes everything already queued (flush reason
// "drain"), and waits for the workers to finish, or for ctx. Pending
// requests are never dropped: every queued request still runs (cancelled
// seats excepted) before the workers exit.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.queue)
	b.mu.Unlock()
	close(b.closing)

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("batch: drain interrupted: %w", ctx.Err())
	}
}

// worker pulls requests off the queue, coalesces them, and runs batches
// on its private runner until the queue is closed and drained, or until a
// shrink Resize retires it. Retirement only happens here, between
// batches — never mid-batch.
func (b *Batcher) worker(r Runner) {
	defer b.wg.Done()
	for {
		if int(b.live.Load()) > int(b.target.Load()) && b.tryRetire() {
			return
		}
		select {
		case first, ok := <-b.queue:
			if !ok {
				b.live.Add(-1)
				return
			}
			reqs, reason := b.collect(first)
			if len(reqs) == 0 {
				continue
			}
			r = b.runBatch(r, reqs, reason)
		case <-b.retire:
			if b.tryRetire() {
				return
			}
		}
	}
}

// collect assembles one batch starting from first: it admits queued
// requests until the size cap, the window timer, or drain, skipping seats
// whose caller has already cancelled (completed with their ctx error).
// The window and size cap are read once at entry, so a concurrent Retune
// affects the next batch, not this one.
func (b *Batcher) collect(first *request) ([]*request, resilience.FlushReason) {
	window := time.Duration(b.windowNanos.Load())
	maxBatch := int(b.maxBatch.Load())
	reqs := make([]*request, 0, maxBatch)
	admit := func(req *request) {
		if err := req.ctx.Err(); err != nil {
			req.complete(nil, err)
			return
		}
		reqs = append(reqs, req)
	}
	admit(first)

	timer := time.NewTimer(window)
	defer timer.Stop()
	reason := resilience.FlushFull
	for len(reqs) < maxBatch {
		select {
		case req, ok := <-b.queue:
			if !ok {
				return reqs, resilience.FlushDrain
			}
			admit(req)
		case <-timer.C:
			return reqs, resilience.FlushWindow
		case <-b.closing:
			// Drain mode: stop waiting out the window, but keep filling
			// from whatever is already queued so the backlog leaves in
			// full batches, not singletons.
			for len(reqs) < maxBatch {
				select {
				case req, ok := <-b.queue:
					if !ok {
						return reqs, resilience.FlushDrain
					}
					admit(req)
				default:
					return reqs, resilience.FlushDrain
				}
			}
			return reqs, resilience.FlushDrain
		}
	}
	return reqs, reason
}

// runBatch executes one batch with panic isolation and fans results back
// to the requests' futures. It returns the runner to use for the next
// batch — a fresh clone after a captured panic, the same one otherwise.
func (b *Batcher) runBatch(r Runner, reqs []*request, reason resilience.FlushReason) Runner {
	if m := b.cfg.Metrics; m != nil {
		m.ObserveBatch(len(reqs), reason)
	}
	xs := make([]*tensor.Tensor, len(reqs))
	for i, req := range reqs {
		xs[i] = req.x
	}
	var outs [][]float32
	var runErr error
	panicErr := resilience.Safe(func() {
		// batch.dispatch fires inside the Safe boundary: an injected panic
		// is captured exactly like a real runner crash, an injected error
		// fails the batch like a real runner error.
		if runErr = faultinject.BatchDispatch.Fire(nil, "", len(reqs)); runErr != nil {
			return
		}
		outs, runErr = r.InferBatch(xs)
	})
	switch {
	case panicErr != nil:
		if m := b.cfg.Metrics; m != nil {
			m.PanicsRecovered.Add(1)
		}
		for _, req := range reqs {
			req.complete(nil, panicErr)
		}
		// The runner may hold corrupted activation state; replace it. If
		// the factory itself fails, keep the old runner — serving with a
		// suspect runner beats serving with none.
		var fresh Runner
		var err error
		if ferr := resilience.Safe(func() {
			_ = faultinject.BatchClone.Fire(nil, "", 0)
			fresh, err = b.cfg.NewRunner()
		}); ferr == nil && err == nil && fresh != nil {
			return fresh
		}
		return r
	case runErr != nil:
		for _, req := range reqs {
			req.complete(nil, runErr)
		}
		return r
	case len(outs) != len(reqs):
		err := fmt.Errorf("batch: runner returned %d outputs for %d inputs", len(outs), len(reqs))
		for _, req := range reqs {
			req.complete(nil, err)
		}
		return r
	default:
		for i, req := range reqs {
			req.complete(outs[i], nil)
		}
		return r
	}
}
