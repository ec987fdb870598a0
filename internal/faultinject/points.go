package faultinject

// The registry: every injection point the serving stack exposes, in the
// order a request meets them. Adding a point means adding it here AND
// wiring its Fire call at the consuming site; the conformance suite
// iterates Points() so new points are picked up by Generate automatically.
var (
	// ServeAdmit fires in the HTTP handler immediately before admission
	// (gate.Acquire). There is no resilience.Safe above it, so it only
	// allows delay actions — used to widen the queue/deadline race
	// windows that produce 429/503 bursts.
	ServeAdmit = newPoint("serve.admit", Sleep, Stall)

	// ServeClone fires inside the Safe block that re-clones a replica
	// after a captured panic. A Panic action simulates the clone itself
	// failing, forcing the degraded keep-the-suspect-replica fallback.
	ServeClone = newPoint("serve.clone", Panic, Sleep)

	// GraphLayer fires before every layer of a forward pass — serial
	// (InferContext) and batched (InferBatch) alike — with the layer name
	// and index. Panic models a kernel crash mid-inference at layer k;
	// Stall parks the pass until the request context expires (the
	// deterministic "cancellation at layer k"); Fail makes the pass
	// return an injected error; Sleep models a slow layer.
	GraphLayer = newPoint("graph.layer", Panic, Fail, Sleep, Stall)

	// ExecChunk fires at the top of every ParallelFor chunk, on whichever
	// goroutine (caller or pool worker) claimed it. Panic models a worker
	// crash (captured and re-raised on the caller); Sleep/Stall model a
	// slow or stalled worker holding one chunk of a dispatch.
	ExecChunk = newPoint("exec.chunk", Panic, Sleep, Stall)

	// RegistryLoad fires inside registry.LoadArtifact, after the file
	// opens but before decode — entirely off the request hot path. Fail
	// simulates a corrupt/unreadable artifact (the load returns a typed
	// error and the old version keeps serving); Panic simulates a loader
	// crash, absorbed by the Safe scope around artifact verification;
	// Sleep models a slow disk.
	RegistryLoad = newPoint("registry.load", Panic, Fail, Sleep)

	// RegistrySwap fires at the three stages of a model swap (Index 0:
	// pre-verification, 1: pre-flip, 2: post-flip/pre-drain), inside the
	// Safe scope that guards the reload protocol. Panic or Fail at any
	// stage must roll the model back to the previous version with zero
	// half-state; Sleep/Stall widen the window in which requests race the
	// pointer flip.
	RegistrySwap = newPoint("registry.swap", Panic, Fail, Sleep, Stall)
)

var registry = []*Point{ServeAdmit, ServeClone, GraphLayer, ExecChunk, RegistryLoad, RegistrySwap}

// Points returns the full registry in request order.
//
//bitflow:keep test harness: the faultinject and conformance tests walk every point through it
func Points() []*Point { return append([]*Point(nil), registry...) }

// Lookup resolves a point by name, or nil.
func Lookup(name string) *Point {
	for _, p := range registry {
		if p.name == name {
			return p
		}
	}
	return nil
}

// Reset disarms every point. Tests that install hooks or scripts must
// call it (usually via defer or t.Cleanup) before the next test runs —
// points are process-global.
func Reset() {
	for _, p := range registry {
		p.Clear()
	}
}
