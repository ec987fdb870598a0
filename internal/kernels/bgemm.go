package kernels

import (
	"bitflow/internal/exec"
)

// This file implements bgemm, BitFlow's binary GEMM (paper gemm level,
// §IV): C = A × Bᵀ where A is M×N bits (M packed rows of wpr words) and B
// was pre-transformed by bitpack.PackMatrixBT into K packed rows of wpr
// words. Output C is M×K int32 inner products.
//
// Optimizations mirror the paper's sgemm-derived techniques:
//   - B is packed transposed, so both inner operands stream linearly;
//   - K-tiling keeps the active slab of B rows inside the L2 cache for
//     large N (fc6: N = 25088 → wpr = 392 words = 3.1 KiB per row);
//   - each output row is one sweep of its packed A row over the tile's
//     contiguous B rows, read in place: no per-column kernel call.

// BGemmOpts tunes the blocked bgemm. Zero values select defaults.
type BGemmOpts struct {
	// Width is the kernel tier the sweeps run at (resolved by
	// Width.Tier); the zero value selects the pure-Go kernel.
	Width Width
	// KTile is the number of B rows per tile; 0 selects 64.
	KTile int
}

func (o *BGemmOpts) fill() {
	if o.KTile <= 0 {
		o.KTile = 64
	}
}

// BGemm multiplies M packed rows a (each wpr words, n valid bits) by the
// K packed rows bT (same wpr/n), writing M×K inner products into out
// (row-major, len M*K).
func BGemm(a []uint64, m int, bT []uint64, k int, wpr, n int, out []int32, opts BGemmOpts) {
	opts.fill()
	if len(a) != m*wpr {
		panicSize("BGemm", "a", len(a), m*wpr)
	}
	if len(bT) != k*wpr {
		panicSize("BGemm", "bT", len(bT), k*wpr)
	}
	if len(out) != m*k {
		panicSize("BGemm", "out", len(out), m*k)
	}
	// K-tiling: all M rows consume one L2-resident slab of B before the
	// next slab is touched.
	for kt := 0; kt < k; kt += opts.KTile {
		kEnd := min(kt+opts.KTile, k)
		bgemmCols(a, m, bT, k, wpr, int32(n), out, opts.Width, kt, kEnd)
	}
}

// BGemmExec runs BGemm with the K dimension split across the execution
// context's thread budget — the paper's multi-core split for the fully
// connected operator ("multi-core parallelism over the K dimension",
// §III-C), dispatched on the context's persistent worker pool instead of
// freshly spawned goroutines. A nil/serial context, or a K too small to
// be worth splitting, degrades to the serial path. Output columns are
// chunk-disjoint, so results are bit-identical at any budget.
func BGemmExec(a []uint64, m int, bT []uint64, k int, wpr, n int, out []int32, opts BGemmOpts, ec *exec.Ctx) {
	if threads := ec.Budget(); threads <= 1 || k < 2*threads {
		BGemm(a, m, bT, k, wpr, n, out, opts)
		return
	}
	opts.fill()
	if len(a) != m*wpr {
		panicSize("BGemmExec", "a", len(a), m*wpr)
	}
	if len(bT) != k*wpr {
		panicSize("BGemmExec", "bT", len(bT), k*wpr)
	}
	if len(out) != m*k {
		panicSize("BGemmExec", "out", len(out), m*k)
	}
	// The closure captures only scalars — capturing opts itself (a method
	// call on the addressable param) would move it to the heap on every
	// call, a per-inference allocation.
	w := opts.Width
	n32 := int32(n)
	ec.ParallelFor(k, func(k0, k1 int) {
		bgemmCols(a, m, bT, k, wpr, n32, out, w, k0, k1)
	})
}

// bgemmCols computes output columns [k0, k1) of every row: the serial
// tile body and the per-worker body of the parallel split.
func bgemmCols(a []uint64, m int, bT []uint64, k, wpr int, n32 int32, out []int32, w Width, k0, k1 int) {
	if wpr <= 0 || k0 < 0 || k1 <= k0 {
		return
	}
	tile := bT[k0*wpr : k1*wpr] // shape checked by the caller's panicSize preamble
	for mi := 0; mi < m; mi++ {
		arow := a[mi*wpr : (mi+1)*wpr] // shape checked by the caller's panicSize preamble
		orow := out[mi*k+k0 : mi*k+k1]
		Sweep(w, arow, tile, orow)
		preacts(orow, n32)
	}
}

// preacts converts raw popcount accumulators to Equation 1
// pre-activations in place: acc[i] = N - 2*acc[i].
func preacts(acc []int32, n32 int32) {
	for i := range acc {
		acc[i] = n32 - 2*acc[i]
	}
}
