// Package kernelspanic is a seeded-violation fixture loaded under the
// fake import path "fixture/internal/kernels": kernels code may only
// panic inside the sanctioned panic* helper functions.
//
//bitflow:keep fixture: the kernelspanic test feeds these functions straight to the analyzers
package kernelspanic

// Apply panics inline instead of going through a helper: flagged.
func Apply(a, b []uint64) int32 {
	if len(a) != len(b) {
		panic("kernels: length mismatch") // want:panicpath
	}
	var acc int32
	for i := range a {
		if a[i] == b[i] {
			acc++
		}
	}
	return acc
}

// ApplyChecked routes the same check through the sanctioned helper.
func ApplyChecked(a, b []uint64) int32 {
	if len(a) != len(b) {
		panicSizeMismatch(len(a), len(b))
	}
	var acc int32
	for i := range a {
		if a[i] == b[i] {
			acc++
		}
	}
	return acc
}

// panicSizeMismatch is a sanctioned helper: the panic* name prefix makes
// its panic legal.
func panicSizeMismatch(got, want int) {
	panic("kernels: size mismatch")
}
