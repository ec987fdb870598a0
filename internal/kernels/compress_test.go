package kernels

import (
	"slices"
	"testing"

	"bitflow/internal/workload"
)

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
	checkFoldProperties(t, cp, words, K, S)
}

// checkFoldProperties pins the filter-level fold invariants:
// DistinctFilters numbers the filters in first-appearance order (so
// reps[c] ≤ c), firsts[i] is the first channel holding filter i, every
// channel's words equal its filter's, the gathered bank holds exactly
// the distinct filters, the plan folds iff some filter repeats (onto a
// plan that does not fold again), and Expand copies each distinct
// filter's value to every channel holding it.
func checkFoldProperties(t *testing.T, cp *CompressPlan, words []uint64, K, S int) {
	t.Helper()
	reps, firsts := DistinctFilters(words, K, S)
	if len(reps) != K || len(firsts) == 0 || len(firsts) > K {
		t.Fatalf("fold geometry: reps=%d firsts=%d (bank K=%d)", len(reps), len(firsts), K)
	}
	bank := GatherFilters(words, S, firsts)
	if len(bank) != len(firsts)*S {
		t.Fatalf("gathered bank has %d words, want %d", len(bank), len(firsts)*S)
	}
	next := int32(0)
	for c, fi := range reps {
		if fi < 0 || fi > next || int(fi) > c {
			t.Fatalf("channel %d: filter index %d breaks first-appearance order (next=%d)", c, fi, next)
		}
		if fi == next {
			if int(firsts[fi]) != c {
				t.Fatalf("filter %d first appears at channel %d, firsts says %d", fi, c, firsts[fi])
			}
			next++
		}
		if !slices.Equal(words[c*S:(c+1)*S], bank[int(fi)*S:(int(fi)+1)*S]) {
			t.Fatalf("channel %d differs from its distinct filter %d", c, fi)
		}
	}
	if int(next) != len(firsts) {
		t.Fatalf("filter indices reach %d, %d distinct filters", next, len(firsts))
	}
	for i := range firsts {
		for j := i + 1; j < len(firsts); j++ {
			if slices.Equal(bank[i*S:(i+1)*S], bank[j*S:(j+1)*S]) {
				t.Fatalf("distinct filters %d and %d are identical", i, j)
			}
		}
	}
	switch {
	case len(firsts) == K && cp.Folded != nil:
		t.Fatal("every filter distinct but the plan folded")
	case len(firsts) < K && cp.Folded == nil:
		t.Fatalf("%d distinct of %d filters but the plan did not fold", len(firsts), K)
	case cp.Folded != nil:
		if cp.Eff() != cp.Folded || cp.Folded.K != len(firsts) || cp.Folded.S != S || cp.Folded.Folded != nil {
			t.Fatalf("folded plan K=%d S=%d refolds=%v, want K=%d S=%d",
				cp.Folded.K, cp.Folded.S, cp.Folded.Folded != nil, len(firsts), S)
		}
		if !slices.Equal(Reconstruct(cp.Folded), bank) {
			t.Fatal("folded plan's bank differs from the gathered distinct filters")
		}
	}
	acc := make([]int32, K)
	for i := range firsts {
		acc[i] = int32(100 + i)
	}
	Expand(reps, acc)
	for c, fi := range reps {
		if acc[c] != int32(100+int(fi)) {
			t.Fatalf("Expand: channel %d = %d, want filter %d's value %d", c, acc[c], fi, 100+int(fi))
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

// TestCompressedAccumSegments pins the segmented walk: accumulating a
// row in arbitrary splits equals one whole-row call.
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
