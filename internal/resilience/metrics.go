// Package resilience provides the building blocks that keep the serving
// layer alive under hostile conditions: admission control with a bounded
// wait queue (Gate), panic capture with stack traces (Safe), and cheap
// always-on failure observability (Metrics with a latency ring buffer).
//
// The package is deliberately free of HTTP and graph dependencies so the
// same primitives can front other subsystems (the registry's swap
// protocol).
package resilience

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a set of atomic counters plus a latency ring shared by a
// serving subsystem. All methods are safe for concurrent use; the zero
// value is NOT usable — call NewMetrics.
type Metrics struct {
	Requests        atomic.Int64 // admitted to the handler (any outcome)
	OK              atomic.Int64 // completed 2xx
	BadRequests     atomic.Int64 // rejected for malformed input (4xx except shed)
	Shed            atomic.Int64 // load-shed: queue full or deadline while waiting
	PanicsRecovered atomic.Int64 // panics caught and converted to errors
	QueueDepth      atomic.Int64 // requests currently waiting for admission
	InFlight        atomic.Int64 // requests currently holding a resource

	lat *LatencyRing
	// layers holds the per-layer timing rings fed by the execution
	// context's observer hook (graph.InferContext → exec.Observer).
	layers *LayerStats
}

// NewMetrics builds a Metrics with a latency ring of the given capacity
// (minimum 16; 1024 is a reasonable serving default).
func NewMetrics(ringSize int) *Metrics {
	return &Metrics{lat: NewLatencyRing(ringSize), layers: NewLayerStats(256)}
}

// ObserveLatency records one successful request's service time.
func (m *Metrics) ObserveLatency(d time.Duration) { m.lat.Observe(d) }

// LatencyQuantile reads one quantile from the latency ring without
// assembling a full Snapshot — cheap enough for the congestion-derived
// Retry-After hint to call on every shed response. Returns 0
// when no samples have been observed yet.
func (m *Metrics) LatencyQuantile(q float64) time.Duration { return m.lat.Quantile(q) }

// ObserveLayer records one layer execution from a forward pass. The
// signature matches exec.Observer, so servers attach it directly to
// their base execution context.
func (m *Metrics) ObserveLayer(layer, kind string, d time.Duration) {
	m.layers.Observe(layer, kind, d)
}

// Snapshot is a point-in-time, JSON-serializable view of the counters.
type Snapshot struct {
	Requests        int64 `json:"requests"`
	OK              int64 `json:"ok"`
	BadRequests     int64 `json:"bad_requests"`
	Shed            int64 `json:"shed"`
	PanicsRecovered int64 `json:"panics_recovered"`
	QueueDepth      int64 `json:"queue_depth"`
	InFlight        int64 `json:"in_flight"`

	LatencySamples int    `json:"latency_samples"`
	P50            string `json:"latency_p50"`
	P99            string `json:"latency_p99"`
	P50Micros      int64  `json:"latency_p50_us"`
	P99Micros      int64  `json:"latency_p99_us"`

	// Layers is the per-layer p50/p99 breakdown in execution order,
	// present once at least one observed forward pass has run.
	Layers []LayerStat `json:"layers,omitempty"`
}

// Snapshot reads every counter and the latency quantiles atomically
// enough for monitoring (individual counters are atomic; the set is not
// a single transaction, which is fine for /statusz).
func (m *Metrics) Snapshot() Snapshot {
	p50 := m.lat.Quantile(0.50)
	p99 := m.lat.Quantile(0.99)
	return Snapshot{
		Requests:        m.Requests.Load(),
		OK:              m.OK.Load(),
		BadRequests:     m.BadRequests.Load(),
		Shed:            m.Shed.Load(),
		PanicsRecovered: m.PanicsRecovered.Load(),
		QueueDepth:      m.QueueDepth.Load(),
		InFlight:        m.InFlight.Load(),

		LatencySamples: m.lat.Len(),
		P50:            p50.String(),
		P99:            p99.String(),
		P50Micros:      p50.Microseconds(),
		P99Micros:      p99.Microseconds(),

		Layers: m.layers.Snapshot(),
	}
}

// LatencyRing is a fixed-capacity ring buffer of duration samples with
// quantile queries. Writers overwrite the oldest sample once full, so the
// quantiles always describe the most recent window. Safe for concurrent
// use.
type LatencyRing struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	full    bool
}

// NewLatencyRing allocates a ring holding up to size samples (minimum 16).
func NewLatencyRing(size int) *LatencyRing {
	if size < 16 {
		size = 16
	}
	return &LatencyRing{samples: make([]time.Duration, size)}
}

// Observe appends one sample, evicting the oldest when full.
func (r *LatencyRing) Observe(d time.Duration) {
	r.mu.Lock()
	r.samples[r.next] = d
	r.next++
	if r.next == len(r.samples) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len reports how many samples the ring currently holds.
func (r *LatencyRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.samples)
	}
	return r.next
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the current window,
// or 0 when the ring is empty. Cost is O(n log n) on the window size —
// acceptable for a monitoring endpoint, not for a hot path.
func (r *LatencyRing) Quantile(q float64) time.Duration {
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.samples)
	}
	if n == 0 {
		r.mu.Unlock()
		return 0
	}
	cp := make([]time.Duration, n)
	copy(cp, r.samples[:n])
	r.mu.Unlock()

	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[n-1]
	}
	idx := int(q * float64(n-1))
	return cp[idx]
}
