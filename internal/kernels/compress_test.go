package kernels

import (
	"testing"

	"bitflow/internal/workload"
)

// Stats returns the duplication analysis the plan was built from.
func (cp *CompressPlan) Stats() CompressStats {
	return CompressStats{
		Channels: cp.K, Positions: cp.S,
		TotalWords: cp.K * cp.S, DistinctWords: len(cp.Words),
	}
}

// Reconstruct expands the plan back into the K*S filter-major packed
// word bank it was built from — the round-trip the plan property tests
// pin bit-exact.
func Reconstruct(cp *CompressPlan) []uint64 {
	out := make([]uint64, cp.K*cp.S)
	for p := 0; p < cp.S; p++ {
		for wi := cp.Starts[p]; wi < cp.Starts[p+1]; wi++ {
			w := cp.Words[wi]
			for _, k := range cp.Channels[cp.ChanStarts[wi]:cp.ChanStarts[wi+1]] {
				out[int(k)*cp.S+p] = w
			}
		}
	}
	return out
}

// randBank builds a deterministic filter-major K×S word bank drawing
// each word from an alphabet of `distinct` values, so tests dial the
// duplication ratio precisely.
func randBank(seed uint64, K, S, distinct int) []uint64 {
	r := workload.NewRNG(seed)
	alpha := make([]uint64, distinct)
	for i := range alpha {
		alpha[i] = r.Uint64()
	}
	w := make([]uint64, K*S)
	for i := range w {
		w[i] = alpha[int(r.Uint64()%uint64(distinct))]
	}
	return w
}

// dupFilterBank builds a bank whose K filters repeat one of `bases`
// random base blocks — the whole-filter duplication mode the fold
// detects.
func dupFilterBank(seed uint64, K, S, bases int) []uint64 {
	r := workload.NewRNG(seed)
	base := make([]uint64, bases*S)
	for i := range base {
		base[i] = r.Uint64()
	}
	w := make([]uint64, K*S)
	for k := 0; k < K; k++ {
		copy(w[k*S:(k+1)*S], base[(k%bases)*S:(k%bases+1)*S])
	}
	return w
}

// checkPlanProperties pins the clustering-plan invariants: table entries
// distinct within their position, every output channel in exactly one
// scatter list per position, scatter lists sorted, and a bit-exact
// round-trip back to the original bank.
func checkPlanProperties(t *testing.T, words []uint64, K, S int) {
	t.Helper()
	cp := BuildCompressPlan(words, K, S)
	if cp.K != K || cp.S != S {
		t.Fatalf("plan geometry K=%d S=%d, want %d %d", cp.K, cp.S, K, S)
	}
	if len(cp.Starts) != S+1 || cp.Starts[0] != 0 || int(cp.Starts[S]) != len(cp.Words) {
		t.Fatalf("Starts malformed: len=%d first=%d last=%d words=%d",
			len(cp.Starts), cp.Starts[0], cp.Starts[S], len(cp.Words))
	}
	if len(cp.ChanStarts) != len(cp.Words)+1 || len(cp.Channels) != K*S {
		t.Fatalf("scatter shape: chanstarts=%d (want %d), channels=%d (want %d)",
			len(cp.ChanStarts), len(cp.Words)+1, len(cp.Channels), K*S)
	}
	for p := 0; p < S; p++ {
		seen := map[uint64]bool{}
		covered := make([]int, K)
		for wi := cp.Starts[p]; wi < cp.Starts[p+1]; wi++ {
			w := cp.Words[wi]
			if seen[w] {
				t.Fatalf("position %d: word %#x appears twice in the distinct table", p, w)
			}
			seen[w] = true
			lo, hi := cp.ChanStarts[wi], cp.ChanStarts[wi+1]
			if lo >= hi {
				t.Fatalf("position %d word %d: empty scatter list", p, wi)
			}
			prev := int32(-1)
			for _, c := range cp.Channels[lo:hi] {
				if c < 0 || int(c) >= K {
					t.Fatalf("position %d: channel %d out of range K=%d", p, c, K)
				}
				if c <= prev {
					t.Fatalf("position %d: scatter list not strictly ascending (%d after %d)", p, c, prev)
				}
				prev = c
				covered[c]++
			}
		}
		for c, n := range covered {
			if n != 1 {
				t.Fatalf("position %d: channel %d appears in %d scatter lists, want exactly 1", p, c, n)
			}
		}
	}
	got := Reconstruct(cp)
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("round-trip mismatch at word %d: got %#x want %#x", i, got[i], words[i])
		}
	}
	// Stats agree between the cheap analysis pass and the full build.
	st := AnalyzeCompression(words, K, S)
	if st != cp.Stats() {
		t.Fatalf("AnalyzeCompression %+v != plan stats %+v", st, cp.Stats())
	}
	checkFoldProperties(t, cp, words, K, S)
}

// checkFoldProperties pins the filter-level fold invariants: FilterReps
// and Folded exist iff whole filter blocks repeat, fold indices are
// first-appearance ordered (so FilterReps[c] ≤ c), the folded bank is
// exactly the distinct blocks, its own fold bottoms out, and Expand
// copies each distinct filter's value to every duplicate channel.
func checkFoldProperties(t *testing.T, cp *CompressPlan, words []uint64, K, S int) {
	t.Helper()
	if (cp.Folded == nil) != (cp.FilterReps == nil) {
		t.Fatalf("fold fields out of sync: Folded=%v FilterReps=%v", cp.Folded != nil, cp.FilterReps != nil)
	}
	if cp.Folded == nil {
		for i := 0; i < K; i++ {
			for j := i + 1; j < K; j++ {
				if wordBlocksEqual(words[i*S:(i+1)*S], words[j*S:(j+1)*S]) {
					t.Fatalf("filters %d and %d are identical but the plan did not fold", i, j)
				}
			}
		}
		return
	}
	if len(cp.FilterReps) != K || cp.Folded.S != S || cp.Folded.K >= K {
		t.Fatalf("fold geometry: reps=%d folded K=%d S=%d (bank K=%d S=%d)",
			len(cp.FilterReps), cp.Folded.K, cp.Folded.S, K, S)
	}
	if cp.Folded.Folded != nil {
		t.Fatal("folded plan folds again: distinct banks must bottom out")
	}
	foldedWords := Reconstruct(cp.Folded)
	next := int32(0)
	for c, fi := range cp.FilterReps {
		if fi < 0 || fi > next || int(fi) > c {
			t.Fatalf("channel %d: fold index %d breaks first-appearance order (next=%d)", c, fi, next)
		}
		if fi == next {
			next++
		}
		for p := 0; p < S; p++ {
			if words[c*S+p] != foldedWords[int(fi)*S+p] {
				t.Fatalf("channel %d word %d: bank %#x != folded filter %d %#x",
					c, p, words[c*S+p], fi, foldedWords[int(fi)*S+p])
			}
		}
	}
	if int(next) != cp.Folded.K {
		t.Fatalf("fold indices reach %d, folded bank has %d filters", next, cp.Folded.K)
	}
	acc := make([]int32, K)
	for i := 0; i < cp.Folded.K; i++ {
		acc[i] = int32(100 + i)
	}
	cp.Expand(acc)
	for c, fi := range cp.FilterReps {
		if acc[c] != int32(100+int(fi)) {
			t.Fatalf("Expand: channel %d = %d, want folded filter %d's value %d", c, acc[c], fi, 100+int(fi))
		}
	}
}

func TestCompressPlanProperties(t *testing.T) {
	cases := []struct {
		name           string
		seed           uint64
		K, S, distinct int
	}{
		{"high-dup", 1, 64, 12, 3},
		{"low-dup", 2, 32, 8, 200}, // alphabet ≫ slots: mostly distinct
		{"all-identical", 3, 48, 9, 1},
		{"single-channel", 4, 1, 7, 5},
		{"single-position", 5, 96, 1, 4},
		{"ragged-alphabet", 6, 17, 5, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkPlanProperties(t, randBank(c.seed, c.K, c.S, c.distinct), c.K, c.S)
		})
	}
	folded := []struct {
		name        string
		seed        uint64
		K, S, bases int
	}{
		{"dup-filters", 7, 64, 12, 4},
		{"dup-filters-one-base", 8, 32, 6, 1},
		{"dup-filters-uneven", 9, 23, 9, 5},
	}
	for _, c := range folded {
		t.Run(c.name, func(t *testing.T) {
			checkPlanProperties(t, dupFilterBank(c.seed, c.K, c.S, c.bases), c.K, c.S)
		})
	}
}

func TestCompressStatsRatio(t *testing.T) {
	K, S := 64, 10
	// All words identical: one distinct word per position.
	bank := make([]uint64, K*S)
	for i := range bank {
		bank[i] = 0xdeadbeef
	}
	st := AnalyzeCompression(bank, K, S)
	if st.DistinctWords != S || st.Ratio() != float64(K) {
		t.Fatalf("all-identical bank: stats %+v ratio %v, want distinct=%d ratio=%d", st, st.Ratio(), S, K)
	}
	if !st.Selectable() {
		t.Fatalf("ratio %v should clear CompressMinRatio %v", st.Ratio(), CompressMinRatio)
	}
	// All-distinct bank: ratio exactly 1, never selected.
	for i := range bank {
		bank[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	st = AnalyzeCompression(bank, K, S)
	if st.DistinctWords != K*S || st.Ratio() != 1 || st.Selectable() {
		t.Fatalf("all-distinct bank: stats %+v ratio %v selectable=%v", st, st.Ratio(), st.Selectable())
	}
}

// TestCompressedAccumSegments pins the segmented walk the conv path
// uses: accumulating a row in arbitrary splits equals one whole-row call.
func TestCompressedAccumSegments(t *testing.T) {
	K, S := 24, 10
	bank := randBank(5, K, S, 3)
	cp := BuildCompressPlan(bank, K, S)
	r := workload.NewRNG(6)
	row := make([]uint64, S)
	for i := range row {
		row[i] = r.Uint64()
	}
	whole := make([]int32, K)
	CompressedAccum(cp, 0, row, whole)
	for _, cuts := range [][]int{{0, 10}, {0, 3, 10}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {0, 9, 10}} {
		acc := make([]int32, K)
		for i := 0; i+1 < len(cuts); i++ {
			CompressedAccum(cp, cuts[i], row[cuts[i]:cuts[i+1]], acc)
		}
		for k := range whole {
			if acc[k] != whole[k] {
				t.Fatalf("cuts %v: acc[%d]=%d want %d", cuts, k, acc[k], whole[k])
			}
		}
	}
}
