package kernels

import (
	"math/rand"
	"testing"
)

// TestXorPopBatchMatchesSingle pins the batched kernels to the
// single-image ladder: for every width and a spread of block lengths and
// batch sizes, accs[b] must equal the single-image kernel applied to
// block b alone.
func TestXorPopBatchMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cases := []struct {
		w    Width
		lens []int
	}{
		{W64, []int{1, 3, 5, 9, 18}},
		{W256, []int{4, 12, 36}},
		{W512, []int{8, 24, 72}},
	}
	for _, tc := range cases {
		batch := BatchForWidth(tc.w)
		single := ForWidth(tc.w)
		for _, s := range tc.lens {
			for _, B := range []int{1, 2, 3, 8, 16} {
				a := make([]uint64, B*s)
				filt := make([]uint64, s)
				for i := range a {
					a[i] = r.Uint64()
				}
				for i := range filt {
					filt[i] = r.Uint64()
				}
				accs := make([]int32, B)
				batch(a, filt, accs)
				for b := 0; b < B; b++ {
					want := single(a[b*s:(b+1)*s], filt)
					if accs[b] != int32(want) {
						t.Errorf("%v S=%d B=%d block %d: batched %d, single %d",
							tc.w, s, B, b, accs[b], want)
					}
				}
			}
		}
	}
}

func TestBatchForWidthCoversLadder(t *testing.T) {
	for _, w := range []Width{W64, W256, W512} {
		if BatchForWidth(w) == nil {
			t.Errorf("no batched kernel for %v", w)
		}
	}
}
