// Package exec is BitFlow's execution-context layer: a persistent worker
// pool (Pool) plus a lightweight dispatch context (Ctx) that together
// replace the old per-call `threads int` plumbing.
//
// The paper's §III-C multi-core story — splitting the fused H·W output
// dimension (conv/pool) and the K dimension (dense) across cores — used
// to be realized by spawning fresh goroutines on every layer of every
// request. That shape has three production problems this package fixes:
//
//   - per-layer goroutine churn dominates the small Table IV operators;
//   - concurrent replicas multiply their thread budgets with nothing
//     bounding total parallelism (core oversubscription);
//   - a panic inside a spawned chunk runs on an unjoined goroutine where
//     no recover can reach it, so one bad request kills the process.
//
// A Pool owns a fixed set of long-lived workers. ParallelFor hands them
// chunks through a claim counter — the caller participates too, so a
// dispatch never blocks on pool availability and total parallelism is
// bounded by workers+callers regardless of how many replicas share the
// pool. Chunk panics are captured in the worker and re-raised on the
// caller's goroutine, so a resilience.Safe boundary above the call
// actually holds.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"bitflow/internal/faultinject"
)

// Pool is a persistent set of worker goroutines that execute ParallelFor
// chunks. Workers are spawned once at construction and live until Close;
// dispatching onto a Pool never spawns. A Pool is safe for concurrent use
// by any number of Ctxs (e.g. every replica of a server sharing one
// process-wide pool).
type Pool struct {
	workers int
	source  string
	jobs    chan *job
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool

	busy       atomic.Int64 // workers currently running chunks
	dispatches atomic.Int64 // ParallelFor calls routed to this pool
}

// NewPool starts a pool with the given number of persistent workers
// (minimum 1). Size it to the machine's core budget, not per caller: the
// whole point is that many callers share one bounded set of workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		source:  "explicit",
		jobs:    make(chan *job, workers),
		quit:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// SetSource records where the worker budget came from ("-threads-total",
// "GOMAXPROCS", ...) for diagnostic reports.
func (p *Pool) SetSource(s string) { p.source = s }

// Workers reports the pool's persistent worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers after their current chunks finish. Dispatching
// onto a closed pool is safe: the caller simply runs every chunk itself.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
		p.wg.Wait()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.jobs:
			p.busy.Add(1)
			j.run()
			p.busy.Add(-1)
		case <-p.quit:
			return
		}
	}
}

// dispatch offers j to at most threads-1 idle workers (non-blocking: a
// busy pool sheds the offer and the caller absorbs the work), then joins
// the claim loop itself.
func (p *Pool) dispatch(j *job, threads int) {
	p.dispatches.Add(1)
	offers := threads - 1
	if offers > p.workers {
		offers = p.workers
	}
offer:
	for i := 0; i < offers; i++ {
		select {
		case p.jobs <- j:
		default:
			break offer
		}
	}
	j.run()
}

// Report is a point-in-time diagnostic view of a pool, printed by
// bitflow-info and embedded in /statusz.
type Report struct {
	Workers    int    `json:"workers"`
	Source     string `json:"source"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Busy       int64  `json:"busy"`
	Dispatches int64  `json:"dispatches"`
}

// Report snapshots the pool's configuration and occupancy counters.
func (p *Pool) Report() Report {
	return Report{
		Workers:    p.workers,
		Source:     p.source,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Busy:       p.busy.Load(),
		Dispatches: p.dispatches.Load(),
	}
}

var (
	defaultPool *Pool
	defaultOnce sync.Once
)

// Default returns the lazily-created process-wide pool, sized to
// GOMAXPROCS. It backs exec.Threads, which command-line tools attach to a
// network with SetExec, and any caller that wants parallelism without
// managing a pool of its own.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = NewPool(runtime.GOMAXPROCS(0))
		defaultPool.source = "GOMAXPROCS"
	})
	return defaultPool
}

// job is one ParallelFor dispatch: a body over [0, total) cut into
// fixed-size chunks that caller and workers claim through an atomic
// cursor. pending counts unfinished chunks; fin closes when it hits zero.
type job struct {
	body    func(start, end int)
	total   int
	chunk   int
	fctx    context.Context // dispatching Ctx's cancellation context, for fault hooks
	next    atomic.Int64
	pending atomic.Int64
	fin     chan struct{}

	mu   sync.Mutex
	panv any // first captured chunk panic, re-raised by the caller
}

// run claims and executes chunks until none remain. Safe to call from any
// number of goroutines; late joiners (workers that dequeue the job after
// the work is gone) return immediately.
func (j *job) run() {
	for {
		s := int(j.next.Add(int64(j.chunk))) - j.chunk
		if s >= j.total {
			return
		}
		e := s + j.chunk
		if e > j.total {
			e = j.total
		}
		j.exec(s, e)
		if j.pending.Add(-1) == 0 {
			close(j.fin)
		}
	}
}

// exec runs one chunk, capturing a panic instead of letting it escape on
// a goroutine nobody joins. The first panic value wins; ParallelFor
// re-raises it on the caller's goroutine after the job drains. The
// exec.chunk fault point fires inside the recover scope, so an injected
// worker crash takes exactly the capture-and-re-raise path a real one
// does.
func (j *job) exec(s, e int) {
	defer func() {
		if v := recover(); v != nil {
			j.mu.Lock()
			if j.panv == nil {
				j.panv = v
			}
			j.mu.Unlock()
		}
	}()
	_ = faultinject.ExecChunk.Fire(j.fctx, "", s)
	j.body(s, e)
}
