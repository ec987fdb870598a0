package kernels

import "math/bits"

// This file implements kernel compression (Silfa & Arnau, "Exploiting
// Kernel Compression on BNNs"): packed BNN filter banks draw their
// 64-bit words from a small alphabet — across output channels the word
// at one input-word position repeats heavily when trained binary
// filters correlate. Instead of paying one XOR+popcount per (filter,
// word), the compressed path computes each *distinct* word's
// XOR+popcount once per input window and scatters the count into every
// output channel that consumes it; when whole filters repeat, the plan
// folds them and keeps the distinct filters as a bank the ordinary
// sweep runs over. Low-channel layers (C < 64) are excluded by the
// operator: a tap word with only C live bits has at most 2^C values, so
// such a bank's ratio is high whatever its filters are, and sweeping it
// is faster than walking its table.
//
// The plan is pure runtime state derived from the packed weights at
// model-load time — serialized artifacts carry no compression metadata
// (mirroring the fusion-planning precedent) — and the transform is
// bit-exact: per-channel accumulators sum the same integer popcounts in
// the same position order, so compressed pre-activations equal the
// uncompressed ones word for word.

// CompressMinRatio is the duplication ratio (total packed words /
// distinct packed words) a weight bank must clear before the load-time
// planner selects the compressed path. The word walk trades one fused
// XOR+popcount+accumulate per (channel, position) for one popcount per
// distinct word plus one scatter-add per (channel, position); the
// scatter-add costs roughly a third to a half of the fused op, so
// break-even sits near ratio 2–3. Requiring 4× keeps a comfortable
// margin: layers at the threshold still shed ≥75% of their popcount
// work, and low-duplication layers (ratio ≈ 1, e.g. random 64-channel
// banks) keep the streaming uncompressed kernels. The ratio is only
// meaningful over full tap words: core.NewConvPacked also requires at
// least 64 input channels, since a C-channel tap word has at most 2^C
// values and the ratio of a narrow bank counts its dead bits.
const CompressMinRatio = 4.0

// CompressStats summarizes one weight bank's duplication analysis.
type CompressStats struct {
	// Channels (K) and Positions (S) give the bank geometry: K filters
	// of S packed words each.
	Channels, Positions int
	// TotalWords is K*S; DistinctWords counts distinct (position, word)
	// pairs — the XOR+popcounts the compressed path actually executes.
	TotalWords, DistinctWords int
}

// Ratio is the duplication factor TotalWords / DistinctWords (≥ 1); the
// compressed path computes 1/Ratio of the uncompressed popcounts.
func (s CompressStats) Ratio() float64 {
	if s.DistinctWords == 0 {
		return 0
	}
	return float64(s.TotalWords) / float64(s.DistinctWords)
}

// Selectable reports whether the measured ratio clears CompressMinRatio.
func (s CompressStats) Selectable() bool { return s.Ratio() >= CompressMinRatio }

// CompressPlan is the compiled compression plan for one packed weight
// bank of K filters × S words (filter-major, the PackedFilter /
// PackMatrixBT layout): a distinct-word table grouped by position plus
// scatter lists mapping each distinct word's popcount result to the
// channels that consume it. Build one at model-load time and share it
// freely — it is read-only.
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

	// FilterReps, Folded and FoldedBank carry the filter-level fold:
	// when whole filter blocks repeat (the common duplication mode of
	// trained binary banks), FilterReps maps each channel to its
	// filter's index in the folded bank of distinct filters
	// (first-appearance order, so FilterReps[c] ≤ c), FoldedBank holds
	// those distinct filters, Folded.K blocks of S words in fold-index
	// order, and Folded is the plan compiled over them. A conv sweeps
	// FoldedBank in place of its full K filters — work scales with
	// distinct filters, not K — and Expand copies the counts out to
	// every duplicate. All three are nil when every filter block is
	// distinct.
	FilterReps []int32
	Folded     *CompressPlan
	FoldedBank []uint64
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

// Expand scatters the folded per-filter results out to all K channels:
// on entry acc[0:Folded.K] holds one value per distinct filter — raw
// counts or pre-activations, Expand only copies — and on exit acc[c]
// holds channel c's value. The descending walk is safe because a
// channel's fold index never exceeds the channel index (first-appearance
// order). No-op on an unfolded plan.
func (cp *CompressPlan) Expand(acc []int32) {
	reps := cp.FilterReps
	if reps == nil {
		return
	}
	if len(acc) != cp.K || len(reps) != cp.K {
		panicSize("CompressPlan.Expand", "acc", len(acc), cp.K)
	}
	for c := len(reps) - 1; c >= 0; c-- {
		acc[c] = acc[reps[c]] //bitflow:bce-ok fold indices validated ≤ c at plan build time
	}
}

// AnalyzeCompression measures the duplication of a packed weight bank —
// K filters of S words each, filter-major — without building the full
// plan (no scatter lists are materialized). words must hold K*S words.
func AnalyzeCompression(words []uint64, K, S int) CompressStats {
	if len(words) != K*S {
		panicSize("AnalyzeCompression", "words", len(words), K*S)
	}
	st := CompressStats{Channels: K, Positions: S, TotalWords: K * S}
	seen := make(map[uint64]struct{}, K) //bitflow:alloc-ok load-time analysis pass, never per inference
	for p := 0; p < S; p++ {
		clear(seen)
		for k := 0; k < K; k++ {
			seen[words[k*S+p]] = struct{}{} //bitflow:bce-ok load-time analysis pass; index pinned by the panicSize preamble
		}
		st.DistinctWords += len(seen)
	}
	return st
}

// BuildCompressPlan clusters the packed weight bank's repeated words and
// compiles the distinct-word table + scatter lists. words must hold K*S
// words, filter-major (filter k's words at words[k*S : (k+1)*S]). The
// result is deterministic: a pure function of (words, K, S).
//
//bitflow:bce-ok load-time plan construction, runs once per model load, never per inference
func BuildCompressPlan(words []uint64, K, S int) *CompressPlan {
	if len(words) != K*S {
		panicSize("BuildCompressPlan", "words", len(words), K*S)
	}
	cp := &CompressPlan{ //bitflow:alloc-ok load-time plan construction, never per inference
		K: K, S: S,
		Starts:   make([]int32, S+1),    //bitflow:alloc-ok load-time plan construction
		Channels: make([]int32, 0, K*S), //bitflow:alloc-ok load-time plan construction
	}
	cp.Words = make([]uint64, 0, K*S)       //bitflow:alloc-ok load-time plan construction
	cp.ChanStarts = make([]int32, 1, K*S+1) //bitflow:alloc-ok load-time plan construction
	idx := make(map[uint64]int32, K)        //bitflow:alloc-ok load-time plan construction; reused across positions
	counts := make([]int32, 0, K)           //bitflow:alloc-ok load-time plan construction; per-position occurrence counts
	offs := make([]int32, 0, K)             //bitflow:alloc-ok load-time plan construction; per-position placement cursors
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
				cp.Words = append(cp.Words, w) //bitflow:alloc-ok load-time plan construction, never per inference
				counts = append(counts, 0)     //bitflow:alloc-ok load-time plan construction, never per inference
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
			offs = append(offs, run) //bitflow:alloc-ok load-time plan construction, never per inference
			run += c
			cp.ChanStarts = append(cp.ChanStarts, run) //bitflow:alloc-ok load-time plan construction, never per inference
		}
		cp.Channels = cp.Channels[:run]
		for k := 0; k < K; k++ {
			wi := idx[words[k*S+p]]
			cp.Channels[offs[wi]] = int32(k)
			offs[wi]++
		}
		cp.Starts[p+1] = int32(len(cp.Words))
	}
	cp.fold(words)
	return cp
}

// fold detects whole-filter duplicates and compiles the distinct-filter
// plan the compute paths prefer: FNV-hash each filter's S-word block,
// confirm candidate matches word for word, and assign first-appearance
// fold indices (so FilterReps[c] ≤ c, the invariant Expand relies on).
//
//bitflow:bce-ok load-time plan construction, runs once per model load, never per inference
func (cp *CompressPlan) fold(words []uint64) {
	K, S := cp.K, cp.S
	reps := make([]int32, K)              //bitflow:alloc-ok load-time plan construction
	repChans := make([]int32, 0, K)       //bitflow:alloc-ok load-time plan construction
	byHash := make(map[uint64][]int32, K) //bitflow:alloc-ok load-time plan construction
	for k := 0; k < K; k++ {
		blk := words[k*S : (k+1)*S]
		h := uint64(1469598103934665603) // FNV-1a over the block's words
		for _, w := range blk {
			h ^= w
			h *= 1099511628211
		}
		fi := int32(-1)
		for _, cand := range byHash[h] {
			rc := int(repChans[cand])
			if wordBlocksEqual(blk, words[rc*S:(rc+1)*S]) {
				fi = cand
				break
			}
		}
		if fi < 0 {
			fi = int32(len(repChans))
			repChans = append(repChans, int32(k)) //bitflow:alloc-ok load-time plan construction, never per inference
			byHash[h] = append(byHash[h], fi)     //bitflow:alloc-ok load-time plan construction, never per inference
		}
		reps[k] = fi
	}
	if len(repChans) == K {
		return // every filter distinct: nothing to fold
	}
	cp.FilterReps = reps
	folded := make([]uint64, 0, len(repChans)*S) //bitflow:alloc-ok load-time plan construction
	for _, rc := range repChans {
		folded = append(folded, words[int(rc)*S:(int(rc)+1)*S]...) //bitflow:alloc-ok load-time plan construction, never per inference
	}
	// The folded bank's filters are all distinct, so this recursion
	// bottoms out immediately (the child's fold finds nothing).
	cp.Folded = BuildCompressPlan(folded, len(repChans), S)
	cp.FoldedBank = folded
}

func wordBlocksEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CompressedAccum adds the XOR+popcount contributions of input-word
// positions [p0, p0+len(seg)) to the K per-channel accumulators: for
// each position's distinct filter words it computes one popcount of
// (input word XOR distinct word) and scatter-adds the count into every
// channel consuming that word. acc must have length K; integer addition
// commutes, so accumulating position-major here is bit-exact against
// the filter-major uncompressed kernels. The operators hand the whole
// window at once (p0 = 0); walking it in segments gives the same sums.
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
	// consumed. Every in-loop access below is proven in bounds off these
	// pins (`bitflow-vet codegen`).
	st := cp.Starts[p0+1 : p0+1+len(seg)] //bitflow:bce-ok one pin per kernel call; length checked by the preamble
	w0 := int(cp.Starts[p0])              //bitflow:bce-ok one read per kernel call
	words := cp.Words[w0:]                //bitflow:bce-ok one pin per kernel call
	ends := cp.ChanStarts[w0+1:]          //bitflow:bce-ok one pin per kernel call
	c0 := int32(0)
	if w0 < len(cp.ChanStarts) {
		c0 = cp.ChanStarts[w0]
	}
	chans := cp.Channels[c0:] //bitflow:bce-ok one pin per kernel call
	wi := 0
	ci := int32(0)
	for pi, x := range seg {
		end := int(st[pi]) - w0 //bitflow:bce-ok st spans exactly len(seg) entries; pi ranges over seg
		for ; wi < end && wi < len(words) && wi < len(ends); wi++ {
			cnt := int32(bits.OnesCount64(x ^ words[wi])) //bitflow:bce-ok wi < len(words) guards the loop; prove drops the fact across the scatter stores
			hi := ends[wi] - c0
			for ci < hi && int(ci) < len(chans) {
				acc[chans[ci]] += cnt //bitflow:bce-ok data-dependent scatter index; every channel entry was validated < K at plan build time
				ci++
			}
		}
	}
}

// CompressedPreacts is the word-walk accumulate step of one window: it
// walks win (cp.S words — a conv's gathered receptive field) through the
// plan's distinct-word table and leaves the K Equation 1
// pre-activations N - 2·popcount in acc (len K). It is what a conv
// holding a plan that does not fold runs in place of the plain sweep; a
// plan that folds whole filters sweeps its FoldedBank instead.
func CompressedPreacts(cp *CompressPlan, win []uint64, n32 int32, acc []int32) {
	if len(acc) != cp.K {
		panicSize("CompressedPreacts", "acc", len(acc), cp.K)
	}
	clear(acc)
	CompressedAccum(cp, 0, win, acc)
	preacts(acc, n32)
}
