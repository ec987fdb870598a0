package kernels

import (
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/workload"
)

// bgemmRef computes the M×K products lane by lane.
func bgemmRef(a []uint64, m int, bT []uint64, k, wpr, n int) []int32 {
	out := make([]int32, m*k)
	for mi := 0; mi < m; mi++ {
		for ki := 0; ki < k; ki++ {
			out[mi*k+ki] = DotRef(a[mi*wpr:(mi+1)*wpr], bT[ki*wpr:(ki+1)*wpr], n)
		}
	}
	return out
}

// randPacked returns rows×wpr words with lanes ≥ n cleared.
func randPacked(r *workload.RNG, rows, wpr, n int) []uint64 {
	w := randWords(r, rows*wpr)
	for row := 0; row < rows; row++ {
		for lane := n; lane < wpr*64; lane++ {
			w[row*wpr+lane/64] &^= 1 << uint(lane%64)
		}
	}
	return w
}

func TestBGemmMatchesRef(t *testing.T) {
	r := workload.NewRNG(10)
	cases := []struct{ m, k, wpr, n int }{
		{1, 1, 1, 64},
		{1, 7, 2, 100},
		{3, 9, 4, 256},
		{2, 130, 8, 512}, // k > one register block and > default tile boundary alignment
		{1, 64, 6, 384},
		{5, 5, 3, 150},
	}
	for _, tc := range cases {
		a := randPacked(r, tc.m, tc.wpr, tc.n)
		bT := randPacked(r, tc.k, tc.wpr, tc.n)
		want := bgemmRef(a, tc.m, bT, tc.k, tc.wpr, tc.n)
		got := make([]int32, tc.m*tc.k)
		BGemm(a, tc.m, bT, tc.k, tc.wpr, tc.n, got, BGemmOpts{})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: out[%d] = %d want %d", tc, i, got[i], want[i])
			}
		}
	}
}

func TestBGemmAllKernels(t *testing.T) {
	r := workload.NewRNG(11)
	// Row lengths on and off the 4- and 8-word vector steps, K on and off
	// the four-filter pass, tiles that cut K unevenly.
	for _, wpr := range []int{8, 5, 11, 1} {
		m, k, n := 2, 37, wpr*64-13
		a := randPacked(r, m, wpr, n)
		bT := randPacked(r, k, wpr, n)
		want := bgemmRef(a, m, bT, k, wpr, n)
		for _, w := range Widths {
			got := make([]int32, m*k)
			BGemm(a, m, bT, k, wpr, n, got, BGemmOpts{Width: w, KTile: 10})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("wpr %d kernel %v: out[%d] = %d want %d", wpr, w, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBGemmTileSizes(t *testing.T) {
	r := workload.NewRNG(12)
	m, k, wpr, n := 1, 100, 2, 128
	a := randPacked(r, m, wpr, n)
	bT := randPacked(r, k, wpr, n)
	want := bgemmRef(a, m, bT, k, wpr, n)
	for _, tile := range []int{1, 3, 7, 64, 1000} {
		got := make([]int32, m*k)
		BGemm(a, m, bT, k, wpr, n, got, BGemmOpts{KTile: tile})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tile %d: out[%d] = %d want %d", tile, i, got[i], want[i])
			}
		}
	}
}

func TestBGemmParallelMatchesSerial(t *testing.T) {
	r := workload.NewRNG(13)
	m, k, wpr, n := 1, 257, 4, 230
	a := randPacked(r, m, wpr, n)
	bT := randPacked(r, k, wpr, n)
	want := make([]int32, m*k)
	BGemm(a, m, bT, k, wpr, n, want, BGemmOpts{})
	for _, threads := range []int{0, 1, 2, 4, 16, 300} {
		ec := exec.Threads(threads)
		got := make([]int32, m*k)
		BGemmExec(a, m, bT, k, wpr, n, got, BGemmOpts{}, ec)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads %d: out[%d] = %d want %d", threads, i, got[i], want[i])
			}
		}
	}
}

func TestBGemmShapePanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	a := make([]uint64, 2)
	bT := make([]uint64, 2)
	out := make([]int32, 1)
	check("bad a", func() { BGemm(a, 2, bT, 1, 2, 64, out, BGemmOpts{}) })
	check("bad b", func() { BGemm(a, 1, bT, 2, 2, 64, out, BGemmOpts{}) })
	check("bad out", func() { BGemm(a, 1, bT, 1, 2, 64, make([]int32, 5), BGemmOpts{}) })
}
