// Package panicpath is a seeded-violation fixture loaded under the fake
// import path "fixture/internal/serve": handler-shaped functions and
// goroutine targets are zone roots, and any panic they can reach without
// a resilience.Safe guard must be flagged.
//
//bitflow:keep fixture: the panicpath test feeds these functions straight to the analyzers
package panicpath

import (
	"net/http"

	"bitflow/internal/resilience"
)

// handleDirect panics in the handler body itself.
func handleDirect(w http.ResponseWriter, r *http.Request) {
	if r == nil {
		panic("nil request") // want:panicpath
	}
	w.WriteHeader(http.StatusOK)
}

// handleTransitive reaches a panic two calls down.
func handleTransitive(w http.ResponseWriter, r *http.Request) {
	decode(r)
	w.WriteHeader(http.StatusOK)
}

func decode(r *http.Request) { validate(r) }

func validate(r *http.Request) {
	if r.Body == nil {
		panic("no body") // want:panicpath
	}
}

// handleGuarded wraps the panicky path in resilience.Safe: the guarded
// edge is pruned, so guardedDecode's panic is unreachable and clean.
func handleGuarded(w http.ResponseWriter, r *http.Request) {
	if err := resilience.Safe(func() { guardedDecode(r) }); err != nil {
		http.Error(w, "replica panic", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func guardedDecode(r *http.Request) {
	if r.Body == nil {
		panic("no body")
	}
}

// handleGuardedByName hands Safe a function by name: the guarded edge is
// the reference's only edge, so guardedReset's panic is clean too.
func handleGuardedByName(w http.ResponseWriter, r *http.Request) {
	if err := resilience.Safe(guardedReset); err != nil {
		http.Error(w, "replica panic", http.StatusInternalServerError)
	}
}

func guardedReset() {
	panic("reset failed")
}

// handlePruned prunes one call edge with a justified //bitflow:panic-ok:
// the annotation asserts the callee cannot panic from here.
func handlePruned(w http.ResponseWriter, r *http.Request) {
	if r == nil {
		http.Error(w, "nil request", http.StatusBadRequest)
		return
	}
	//bitflow:panic-ok r was nil-checked just above; mustDecode only panics on nil
	mustDecode(r)
	w.WriteHeader(http.StatusOK)
}

func mustDecode(r *http.Request) {
	if r == nil {
		panic("nil request")
	}
}

// handleBare carries a panic-ok with no justification: the annotation is
// flagged AND the edge still counts, so mustDecodeBare's panic is too.
func handleBare(w http.ResponseWriter, r *http.Request) {
	//bitflow:panic-ok
	mustDecodeBare(r) // want:panicpath
	w.WriteHeader(http.StatusOK)
}

func mustDecodeBare(r *http.Request) {
	if r == nil {
		panic("nil request") // want:panicpath
	}
}

// handleAnnotatedPanic excuses the panic itself with a justification.
func handleAnnotatedPanic(w http.ResponseWriter, r *http.Request) {
	if r == nil {
		//bitflow:panic-ok misuse guard for nil *Request, unreachable via net/http
		panic("nil request")
	}
	w.WriteHeader(http.StatusOK)
}

// startWorker launches a goroutine: its target has no recovering caller,
// so the target's panic is request-fatal and flagged.
func startWorker() {
	go worker()
}

func worker() {
	panic("worker died") // want:panicpath
}

// orphan is in the zone package but unreachable from any root: clean.
func orphan() {
	panic("never called")
}
