package bitpack

import (
	"testing"
	"testing/quick"

	"bitflow/internal/workload"
)

func TestPackMatrixBTMatchesStaged(t *testing.T) {
	r := workload.NewRNG(30)
	for _, tc := range []struct{ n, k int }{
		{64, 1}, {64, 5}, {128, 3}, {100, 7}, {65, 2}, {256, 16}, {1, 1},
	} {
		b := workload.RandMatrix(r, tc.n, tc.k)
		wpr := WordsFor(tc.n)
		fused := PackMatrixBT(b, wpr)
		staged := StagedPackMatrixBT(b, wpr)
		if fused.K != staged.K || fused.N != staged.N || fused.WPR != staged.WPR {
			t.Fatalf("n=%d k=%d: shape mismatch %v vs %v", tc.n, tc.k, fused, staged)
		}
		for i := range fused.Words {
			if fused.Words[i] != staged.Words[i] {
				t.Fatalf("n=%d k=%d: word %d differs: %x vs %x", tc.n, tc.k, i, fused.Words[i], staged.Words[i])
			}
		}
	}
}

// TestPackMatrixBTQuick: fused transform == staged transform, as a
// property over arbitrary small matrices and extra word padding.
func TestPackMatrixBTQuick(t *testing.T) {
	f := func(seed uint64, nn, kk, extra uint8) bool {
		n := int(nn)%200 + 1
		k := int(kk)%20 + 1
		wpr := WordsFor(n) + int(extra)%3
		r := workload.NewRNG(seed)
		b := workload.RandMatrix(r, n, k)
		fused := PackMatrixBT(b, wpr)
		staged := StagedPackMatrixBT(b, wpr)
		for i := range fused.Words {
			if fused.Words[i] != staged.Words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackMatrixBTTransposition(t *testing.T) {
	// Row k of the packed matrix must be column k of sign(B).
	r := workload.NewRNG(31)
	n, k := 70, 4
	b := workload.RandMatrix(r, n, k)
	pm := PackMatrixBT(b, WordsFor(n))
	for ki := 0; ki < k; ki++ {
		row := UnpackVector(pm.RowWords(ki), n)
		for ni := 0; ni < n; ni++ {
			want := float32(1)
			if b.At(ni, ki) < 0 {
				want = -1
			}
			if row[ni] != want {
				t.Fatalf("col %d lane %d: got %v want %v", ki, ni, row[ni], want)
			}
		}
	}
}

func TestPackVectorRoundtrip(t *testing.T) {
	r := workload.NewRNG(32)
	for _, n := range []int{1, 63, 64, 65, 127, 500} {
		v := make([]float32, n)
		for i := range v {
			v[i] = r.PM1()
		}
		words := make([]uint64, WordsFor(n)+1)
		PackVectorInto(words, v)
		back := UnpackVector(words, n)
		for i := range v {
			if v[i] != back[i] {
				t.Fatalf("n=%d lane %d: got %v want %v", n, i, back[i], v[i])
			}
		}
		// Trailing lanes must be zero.
		for lane := n; lane < len(words)*64; lane++ {
			if words[lane/64]>>(uint(lane)%64)&1 != 0 {
				t.Fatalf("n=%d: tail lane %d set", n, lane)
			}
		}
	}
}

func TestPackVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PackVectorInto with a short dst did not panic")
		}
	}()
	PackVectorInto(make([]uint64, 1), make([]float32, 65))
}

func TestPackedFilterRoundtrip(t *testing.T) {
	r := workload.NewRNG(33)
	f := workload.PM1Filter(r, 5, 3, 3, 100)
	pf := PackFilter(f, WordsFor(100))
	back := UnpackFilter(pf)
	for i := range f.Data {
		if f.Data[i] != back.Data[i] {
			t.Fatalf("filter roundtrip differs at %d", i)
		}
	}
}

// FilterWords returns the dense KH*KW*WPP-word block of filter k.
func (pf *PackedFilter) FilterWords(k int) []uint64 {
	sz := pf.KH * pf.KW * pf.WPP
	off := k * sz
	return pf.Words[off : off+sz : off+sz]
}

func TestFilterWordsContiguity(t *testing.T) {
	// FilterWords(k) must cover exactly taps (k, *, *) in (i, j) order.
	r := workload.NewRNG(34)
	f := workload.PM1Filter(r, 3, 2, 2, 64)
	pf := PackFilter(f, 1)
	for k := 0; k < 3; k++ {
		block := pf.FilterWords(k)
		idx := 0
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				tap := pf.TapWords(k, i, j)
				for w := range tap {
					if block[idx] != tap[w] {
						t.Fatalf("filter %d tap (%d,%d) word %d not contiguous", k, i, j, w)
					}
					idx++
				}
			}
		}
	}
}
