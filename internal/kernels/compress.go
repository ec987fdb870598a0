package kernels

import (
	"math/bits"
	"slices"
)

// This file implements kernel compression (Silfa & Arnau, "Exploiting
// Kernel Compression on BNNs") as one filter fold: trained binary banks
// repeat whole filters across output channels, so a conv sweeps its F
// distinct filters once per window and Expand copies their counts out to
// the K channels. The fold is a pure function of the packed weights,
// derived at model-load time — serialized artifacts carry none of it —
// and bit-exact: a duplicate channel's count is the count of the same
// filter words.
//
// The word-level plan below (BuildCompressPlan, CompressedAccum) walks a
// per-position distinct-word table with one scalar scatter-add per
// (channel, position). Measured against the sweep it loses at every
// duplication ratio (6–23× slower on AVX-512, 1.4–2.1× under purego), so
// no operator runs it; only the benchmark's kernel probe does.

// CompressMinRatio is the fold ratio K/F (filters over distinct filters)
// a conv bank must reach before it folds. Sweeping F filters and
// expanding is measured 1.2–1.5× faster than the full sweep at K/F = 2
// and 1.4–2.5× at K/F = 4; requiring 4 keeps banks with a few chance
// repeats on the plain sweep, where folding buys little.
const CompressMinRatio = 4.0

// CompressPlan is the word-level compression plan of one packed weight
// bank of K filters × S words (filter-major, the PackedFilter /
// PackMatrixBT layout): a distinct-word table grouped by position plus
// scatter lists mapping each distinct word's popcount result to the
// channels that consume it. It is read-only once built.
type CompressPlan struct {
	// K is the output-channel count, S the packed words per filter.
	K, S int
	// Words is the distinct-word table, grouped by position: position p
	// owns Words[Starts[p]:Starts[p+1]], each entry distinct within its
	// position and ordered by first appearance over channels 0..K-1 (so
	// the plan is a pure function of the weights).
	Words []uint64
	// Starts indexes Words per position (len S+1, Starts[0] = 0).
	Starts []int32
	// Channels holds the concatenated scatter lists: distinct word wi
	// feeds channels Channels[ChanStarts[wi]:ChanStarts[wi+1]], in
	// ascending order. Every channel appears in exactly one scatter list
	// per position, so len(Channels) == K*S.
	Channels []int32
	// ChanStarts indexes Channels per distinct word (len(Words)+1).
	ChanStarts []int32
	// Folded is the plan compiled over the bank's distinct filters, nil
	// when every filter is distinct.
	Folded *CompressPlan
}

// Eff returns the smallest plan a word walk over this bank needs: the
// folded distinct-filter plan when whole filters duplicate, the plan
// itself otherwise. Eff().K ≤ K always.
func (cp *CompressPlan) Eff() *CompressPlan {
	if cp.Folded != nil {
		return cp.Folded
	}
	return cp
}

// DistinctFilters finds the distinct filters of a packed bank of K
// filters × S words, filter-major: FNV-hash each filter's S-word block,
// confirm candidate matches word for word, and number the distinct
// filters in first-appearance order. reps[c] is channel c's filter index
// (so reps[c] ≤ c, the invariant Expand relies on) and firsts[i] the
// first channel holding filter i; F is len(firsts).
func DistinctFilters(words []uint64, K, S int) (reps, firsts []int32) {
	if len(words) != K*S {
		panicSize("DistinctFilters", "words", len(words), K*S)
	}
	reps = make([]int32, K)
	byHash := make(map[uint64][]int32, K)
	for k := 0; k < K; k++ {
		blk := words[k*S : (k+1)*S]
		h := uint64(1469598103934665603) // FNV-1a over the block's words
		for _, w := range blk {
			h ^= w
			h *= 1099511628211
		}
		fi := int32(-1)
		for _, cand := range byHash[h] {
			rc := int(firsts[cand])
			if slices.Equal(blk, words[rc*S:(rc+1)*S]) {
				fi = cand
				break
			}
		}
		if fi < 0 {
			fi = int32(len(firsts))
			firsts = append(firsts, int32(k))
			byHash[h] = append(byHash[h], fi)
		}
		reps[k] = fi
	}
	return reps, firsts
}

// GatherFilters copies the S-word filters at the channel indices idx out
// of a filter-major bank into a new bank, in idx order: given
// DistinctFilters' firsts, the folded bank of distinct filters.
func GatherFilters(words []uint64, S int, idx []int32) []uint64 {
	out := make([]uint64, 0, len(idx)*S)
	for _, c := range idx {
		out = append(out, words[int(c)*S:(int(c)+1)*S]...)
	}
	return out
}

// Expand copies folded per-filter counts out to all channels: on entry
// acc[0:F] holds one count per distinct filter, on exit acc[c] holds
// channel c's, reps being DistinctFilters' channel map. The descending
// walk is safe because a channel's filter index never exceeds the
// channel index.
func Expand(reps, acc []int32) {
	if len(acc) != len(reps) {
		panicSize("Expand", "acc", len(acc), len(reps))
	}
	for c := len(reps) - 1; c >= 0; c-- {
		acc[c] = acc[reps[c]]
	}
}

// BuildCompressPlan clusters the packed weight bank's repeated words and
// compiles the distinct-word table + scatter lists, plus the plan over
// the distinct filters when some repeat. words must hold K*S words,
// filter-major (filter k's words at words[k*S : (k+1)*S]). The result is
// deterministic: a pure function of (words, K, S).
func BuildCompressPlan(words []uint64, K, S int) *CompressPlan {
	if len(words) != K*S {
		panicSize("BuildCompressPlan", "words", len(words), K*S)
	}
	cp := &CompressPlan{
		K: K, S: S,
		Starts:   make([]int32, S+1),
		Channels: make([]int32, 0, K*S),
	}
	cp.Words = make([]uint64, 0, K*S)
	cp.ChanStarts = make([]int32, 1, K*S+1)
	idx := make(map[uint64]int32, K)
	counts := make([]int32, 0, K)
	offs := make([]int32, 0, K)
	for p := 0; p < S; p++ {
		// Pass 1: intern this position's distinct words (first-appearance
		// order) and count how many channels consume each.
		clear(idx)
		counts = counts[:0]
		for k := 0; k < K; k++ {
			w := words[k*S+p]
			wi, ok := idx[w]
			if !ok {
				wi = int32(len(counts))
				idx[w] = wi
				cp.Words = append(cp.Words, w)
				counts = append(counts, 0)
			}
			counts[wi]++
		}
		// Pass 2: prefix-sum the counts into placement cursors inside this
		// position's K-entry channel block, then place each channel —
		// ascending k, so every scatter list comes out sorted.
		base := int32(len(cp.Channels))
		offs = offs[:0]
		run := base
		for _, c := range counts {
			offs = append(offs, run)
			run += c
			cp.ChanStarts = append(cp.ChanStarts, run)
		}
		cp.Channels = cp.Channels[:run]
		for k := 0; k < K; k++ {
			wi := idx[words[k*S+p]]
			cp.Channels[offs[wi]] = int32(k)
			offs[wi]++
		}
		cp.Starts[p+1] = int32(len(cp.Words))
	}
	if _, firsts := DistinctFilters(words, K, S); len(firsts) < K {
		cp.Folded = BuildCompressPlan(GatherFilters(words, S, firsts), len(firsts), S)
	}
	return cp
}

// CompressedAccum adds the XOR+popcount contributions of input-word
// positions [p0, p0+len(seg)) to the K per-channel accumulators: for
// each position's distinct filter words it computes one popcount of
// (input word XOR distinct word) and scatter-adds the count into every
// channel consuming that word. acc must have length K; integer addition
// commutes, so accumulating position-major here is bit-exact against
// the filter-major sweep, and walking a window in segments gives the
// same sums as one call.
func CompressedAccum(cp *CompressPlan, p0 int, seg []uint64, acc []int32) {
	if p0 < 0 || p0+len(seg) > cp.S {
		panicSize("CompressedAccum", "seg", p0+len(seg), cp.S)
	}
	if len(acc) != cp.K {
		panicSize("CompressedAccum", "acc", len(acc), cp.K)
	}
	if len(cp.Starts) != cp.S+1 {
		panicSize("CompressedAccum", "cp.Starts", len(cp.Starts), cp.S+1)
	}
	// One cursor bundle per call: starts aligned to seg, then words,
	// per-word channel-list ends, and the channel stream advanced as
	// consumed. The in-loop accesses below index off these pins.
	st := cp.Starts[p0+1 : p0+1+len(seg)] // length checked by the preamble
	w0 := int(cp.Starts[p0])
	words := cp.Words[w0:]
	ends := cp.ChanStarts[w0+1:]
	c0 := int32(0)
	if w0 < len(cp.ChanStarts) {
		c0 = cp.ChanStarts[w0]
	}
	chans := cp.Channels[c0:]
	wi := 0
	ci := int32(0)
	for pi, x := range seg {
		end := int(st[pi]) - w0 // st spans exactly len(seg) entries; pi ranges over seg
		for ; wi < end && wi < len(words) && wi < len(ends); wi++ {
			cnt := int32(bits.OnesCount64(x ^ words[wi]))
			hi := ends[wi] - c0
			for ci < hi && int(ci) < len(chans) {
				acc[chans[ci]] += cnt // every channel entry was validated < K at plan build time
				ci++
			}
		}
	}
}
