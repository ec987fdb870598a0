package kernels

// This file holds the sweep primitive and the three kernel seams
// (ForWidth, RowsForWidth, BatchForWidth) it serves. sweep_amd64.s
// implements the AVX-512 and AVX2 tiers; XorPopSweep64 below is the
// pure-Go tier and the oracle the others are fuzzed against.

// Sweep XOR+popcounts the S = len(win) word window against K = len(acc)
// consecutive S-word blocks of filters on the widest tier no wider than w
// that this CPU executes: acc[k] = Σᵢ popcount(win[i] XOR filters[k·S+i]).
// filters must hold at least K·S words; operands need no alignment and S
// no particular divisor — the assembly tiers mask their tails.
func Sweep(w Width, win, filters []uint64, acc []int32) {
	if len(filters) < len(acc)*len(win) {
		panicSize("Sweep", "filters", len(filters), len(acc)*len(win))
	}
	sweepTier(w.Tier(), win, filters, acc)
}

// XorPopSweep64 is the pure-Go sweep: the kernel of every build without
// an assembly tier and the reference for the ones that have them.
func XorPopSweep64(win, filters []uint64, acc []int32) {
	for k := range acc {
		acc[k] = int32(XorPop64(win, filters[:len(win)])) // panics if the bank is shorter than K·S, like Sweep's check
		filters = filters[len(win):]
	}
}

// XorPopFunc is the signature of an XOR+popcount kernel: it returns
// Σᵢ popcount(a[i] XOR b[i]) over two equal-length word slices.
// Equation 1 turns this into a binary inner product:
// dot = N − 2·XorPopFunc(a, b), with N the number of valid lanes.
type XorPopFunc func(a, b []uint64) int

// XorPopRowsFunc accumulates XOR+popcount over several row segments
// against a contiguous filter block: result = Σᵢ Σⱼ popcount(rows[i][j]
// XOR filt[i·len(rows[i])+j]). filt must hold at least Σ len(rows[i])
// words.
type XorPopRowsFunc func(rows [][]uint64, filt []uint64) int

// XorPopBatchFunc computes, for each of the B = len(accs) contiguous
// S = len(filt) word blocks of a (len(a) ≥ B*S), the XOR+popcount against
// the single filter block: accs[b] = Σᵢ popcount(a[b*S+i] XOR filt[i]) —
// the sweep with its operands swapped.
type XorPopBatchFunc func(a, filt []uint64, accs []int32)

// checkedTier resolves a width to its kernel tier and panics on a Width
// that names no tier.
func checkedTier(w Width) Width {
	switch w {
	case W64, W256, W512:
		return w.Tier()
	}
	panicUnknownWidth()
	return 0
}

// ForWidth returns the flat kernel for the given width: a one-filter
// sweep on the width's tier.
func ForWidth(w Width) XorPopFunc {
	tier := checkedTier(w)
	if tier == W64 {
		return XorPop64
	}
	return func(a, b []uint64) int {
		var acc [1]int32
		sweepTier(tier, a, b[:len(a)], acc[:]) // panics if b is shorter than a, like XorPop64
		return int(acc[0])
	}
}

// RowsForWidth returns the row-batched kernel for the given width: one
// one-filter sweep per row segment. No operator calls it; its only
// reader is the benchmark's kernels.xorpop_rows_l1_words_per_ns, and it
// goes when that metric leaves the contract.
func RowsForWidth(w Width) XorPopRowsFunc {
	tier := checkedTier(w)
	if tier == W64 {
		return XorPopRows64
	}
	return func(rows [][]uint64, filt []uint64) int {
		var acc [1]int32
		total := 0
		for _, r := range rows {
			sweepTier(tier, r, filt[:len(r)], acc[:]) // panics if the filter block is short, like XorPopRows64
			total += int(acc[0])
			filt = filt[len(r):]
		}
		return total
	}
}

// BatchForWidth returns the batched kernel for the given width: the
// filter block is the sweep's window, the B gathered blocks its filters.
func BatchForWidth(w Width) XorPopBatchFunc {
	tier := checkedTier(w)
	return func(a, filt []uint64, accs []int32) {
		if len(a) < len(accs)*len(filt) {
			panicSize("XorPopBatch", "a", len(a), len(accs)*len(filt))
		}
		sweepTier(tier, filt, a, accs)
	}
}
