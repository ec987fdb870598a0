package kernels

import (
	"testing"

	"bitflow/internal/workload"
)

// popSink keeps XorPop64's result observable, so the call the
// allocation check times is not optimized away.
var popSink int

// TestKernelAllocations pins the per-call kernels an operator forward
// runs at zero heap allocations on every tier: the sweep, the threshold
// epilogue (overwriting and pooled) and its fused one-word sweep, the
// folded-count expansion, the binary GEMM, and the scalar XOR+popcount
// and OR reductions. Shapes leave tails on the vector tiers: 75-word
// windows, 72 channels.
func TestKernelAllocations(t *testing.T) {
	const S, K = 75, 72
	r := workload.NewRNG(30)
	win := randWords(r, S)
	filters := randWords(r, K*S)
	acc := make([]int32, K)
	flip := make([]bool, K)
	thr := make([]int32, K)
	for c := range thr {
		thr[c] = int32(r.Uint64()%64) - 32
		flip[c] = c%3 == 0
	}
	d := make([]int32, K)
	for c := range d {
		d[c] = int32(r.Uint64()%64) - 32
	}
	bits := make([]uint64, 2)
	const m, n, wpr = 2, 500, 8
	a := randPacked(r, m, wpr, n)
	bT := randPacked(r, K, wpr, n)
	out := make([]int32, m*K)

	for _, w := range []Width{W64, W256, W512} {
		e := NewEpilogue(thr, flip)
		e.Tier = w.Tier()
		for name, fn := range map[string]func(){
			"Sweep":           func() { Sweep(w, win, filters, acc) },
			"Epilogue.Pack":   func() { e.Pack(d, bits) },
			"Epilogue.PackOr": func() { e.PackOr(d, bits) },
			"SweepBits":       func() { e.SweepBits(win[:1], filters[:K], bits) },
			"BGemm":           func() { BGemm(a, m, bT, K, wpr, n, out, BGemmOpts{Width: w}) },
		} {
			if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
				t.Errorf("%v: %s allocates %v times per call, want 0", w, name, allocs)
			}
		}
	}

	reps, firsts := DistinctFilters(dupFilterBank(31, K, S, 4), K, S)
	if len(firsts) != 4 {
		t.Fatalf("bank folds to %d filters, want 4", len(firsts))
	}
	dst := randWords(r, S)
	for name, fn := range map[string]func(){
		"Expand":   func() { Expand(reps, acc) },
		"XorPop64": func() { popSink = XorPop64(win, filters[:S]) },
		"OrInto":   func() { OrInto(dst, win) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
}
