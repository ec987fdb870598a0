// Package hotalloc is a seeded-violation fixture loaded under the fake
// import path "fixture/internal/core". HotPath is rooted with
// //bitflow:hot; everything reachable from it must be allocation-free.
//
//bitflow:keep fixture: the hotalloc test feeds these functions straight to the analyzers
package hotalloc

import "bitflow/internal/exec"

type result struct {
	vals []int32
}

//bitflow:hot
func HotPath(in []int32) int32 {
	if len(in) == 0 {
		// Allocations feeding a panic argument are failure-path only and
		// must not be flagged (this boxes "empty input" into an any).
		panic(any("empty input"))
	}
	buf := make([]int32, len(in)) // want:hotalloc
	copy(buf, in)
	buf = append(buf, 0)   // want:hotalloc
	extras := []int32{1}   // want:hotalloc
	seen := map[int]bool{} // want:hotalloc
	_ = seen
	r := &result{vals: buf} // want:hotalloc
	_ = extras
	scratch := make([]int32, 4) //bitflow:alloc-ok fixture: deliberate, justified scratch buffer
	_ = scratch
	//bitflow:alloc-ok
	bare := make([]int32, 4) // want:hotalloc
	_ = bare
	grown := EnsureScratch(8) // boundary call: EnsureScratch's make is sanctioned
	_ = grown
	return helper(r.vals)
}

// helper is reached transitively from HotPath: its allocation is hot too.
func helper(in []int32) int32 {
	tmp := make([]int32, len(in)) // want:hotalloc
	copy(tmp, in)
	var total int32
	for _, v := range tmp {
		total += v
	}
	return total
}

// HotChunks hands a named helper to ParallelFor: the helper runs per
// inference wherever ParallelFor invokes it, so it is hot too.
//
//bitflow:hot
func HotChunks(ec *exec.Ctx, n int) {
	ec.ParallelFor(n, fillChunk)
}

// fillChunk is reached only through the reference above.
func fillChunk(start, end int) {
	chunk := make([]int32, end-start) // want:hotalloc
	_ = chunk
}

// EnsureScratch is a sanctioned allocation point: the Ensure* name prefix
// makes it a boundary, so its make is never flagged even though HotPath
// calls it.
func EnsureScratch(n int) []int32 {
	return make([]int32, n)
}

// coldPath is not reachable from any hot root: free to allocate.
func coldPath(n int) []int32 {
	out := make([]int32, n)
	return out
}
