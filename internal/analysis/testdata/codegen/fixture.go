// Package codegen is a seeded-violation fixture for the compiler-backed
// codegen gate, loaded under the fake import path
// "fixture/internal/kernels" — every function is a hot root and bounds
// checks are gated by package path, exactly like the real kernels. The
// compiler diagnostics are synthesized from the //codegen: marker lines
// by fixtureDiagSource: each marker stands in for one real
// `-m=2 -d=ssa/check_bce` diagnostic at that position, so the fixture
// exercises the diagnostic→finding mapping, the carve-outs, and the
// escape hatches without shelling out to the compiler.
//
//bitflow:keep fixture: the codegen test feeds these functions straight to the analyzers
package codegen

// HotKernel is a hot root by package role; the markers inside simulate
// what the optimizer reports about its body.
func HotKernel(in []int32) int32 {
	if len(in) == 0 {
		panicEmpty(
			//codegen:escape boxed-panic-argument
			len(in),
		)
	}
	var total int32
	for _, v := range in {
		total += v
	}
	// A local the compiler spilled to the heap: a per-call allocation.
	//codegen:moved total // want:codegen
	// Static string data never counts as a hot allocation.
	//codegen:escape "kernels: static label"
	// A surviving bounds check in a kernel is a finding...
	//codegen:bounds // want:codegen
	//bitflow:bce-ok fixture: deliberate, justified residual check
	//codegen:bounds
	//bitflow:bce-ok
	//codegen:bounds-slice // want:codegen
	//bitflow:alloc-ok fixture: justified spill, amortized at build time
	//codegen:moved spill
	return total
}

// RefKernel is excused wholesale: the function-level //bitflow:bce-ok
// covers every surviving check in a reference implementation.
//
//bitflow:bce-ok fixture: reference implementation kept for test oracles
func RefKernel(in []int32) int32 {
	var total int32
	//codegen:bounds
	//codegen:bounds-slice
	for _, v := range in {
		total += v
	}
	return total
}

// BareRefKernel has a function-level hatch with no why: one finding for
// the bare directive (reported once, not per diagnostic).
//
//bitflow:bce-ok
func BareRefKernel(in []int32) int32 { // want:codegen
	var total int32
	//codegen:bounds
	//codegen:bounds
	for _, v := range in {
		total += v
	}
	return total
}

// EnsureScratch is a boundary function (Ensure*): its allocations are
// the sanctioned buffer-growth path and are never hot findings.
func EnsureScratch(n int) []int32 {
	//codegen:moved grown
	grown := make([]int32, n)
	return grown
}

// panicEmpty is the sanctioned panic helper; escapes positioned inside
// its call are failure-path formatting, not hot allocations.
func panicEmpty(n int) {
	panic("kernels: empty input")
}
