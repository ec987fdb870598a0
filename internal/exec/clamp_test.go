package exec

import "testing"

func TestClampThreads(t *testing.T) {
	for _, tc := range []struct {
		threads, replicas, cores int
		want                     int
		clamped                  bool
	}{
		{4, 2, 8, 4, false},  // fits exactly
		{4, 2, 16, 4, false}, // plenty of room
		{4, 4, 8, 2, true},   // 16 demanded on 8 cores → 2 each
		{8, 3, 8, 2, true},   // integer division floors
		{4, 16, 8, 1, true},  // more replicas than cores → serial each
		{1, 16, 8, 1, false}, // already serial: nothing to clamp
		{0, 0, 0, 1, false},  // degenerate inputs normalize to 1
		{4, 1, 1, 1, true},   // single-core box

		// Boundary rows: the exact fit/overflow edges and the places the
		// min-1 and never-grow clamps engage.
		{-3, -2, -1, 1, false},   // negative inputs normalize to 1, same as zero
		{2, 2, 4, 2, false},      // threads×replicas == cores: the last fitting point
		{2, 2, 3, 1, true},       // one past the fit: floor(3/2)=1
		{3, 2, 7, 3, false},      // 3×2=6 ≤ 7 still fits despite the remainder
		{1, 1, 1, 1, false},      // minimal everything
		{7, 1, 7, 7, false},      // single replica exactly saturates
		{8, 1, 7, 7, true},       // single replica one over: budget = cores
		{2, 3, 100, 2, false},    // budget never grows past the request
		{100, 100, 100, 1, true}, // square saturation → serial each
	} {
		got, clamped := ClampThreads(tc.threads, tc.replicas, tc.cores)
		if got != tc.want || clamped != tc.clamped {
			t.Errorf("ClampThreads(%d, %d, %d) = (%d, %v), want (%d, %v)",
				tc.threads, tc.replicas, tc.cores, got, clamped, tc.want, tc.clamped)
		}
	}
}
