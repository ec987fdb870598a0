package kernels

import "fmt"

// Sanctioned panic helpers. Kernels validate shapes at their entry and
// panic on mismatch — a size bug is a programming error upstream, not a
// runtime condition to limp through. bitflow-vet's panicpath analyzer
// enforces that these helpers are the only way a kernel panics, so the
// failure surface stays uniform and greppable. Serving paths wrap every
// inference in resilience.Safe, which converts these into replica
// re-clones instead of process death.

// panicSize reports a slice whose length does not match the shape
// arguments, e.g. "kernels: BGemm len(a)=4 want 8".
func panicSize(fn, what string, got, want int) {
	panic(fmt.Sprintf("kernels: %s len(%s)=%d want %d", fn, what, got, want))
}

// panicUnknownWidth reports a Width that names no kernel tier.
func panicUnknownWidth() {
	panic("kernels: unknown width")
}
