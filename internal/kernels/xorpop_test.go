package kernels

import (
	"math/bits"
	"testing"
	"testing/quick"

	"bitflow/internal/workload"
)

// DotRef is the O(bits) reference implementation: it walks
// lanes one bit at a time and accumulates ±1 products.
func DotRef(a, b []uint64, validLanes int) int32 {
	var acc int32
	for lane := 0; lane < validLanes; lane++ {
		av := a[lane/64] >> (uint(lane) % 64) & 1
		bv := b[lane/64] >> (uint(lane) % 64) & 1
		if av == bv {
			acc++
		} else {
			acc--
		}
	}
	return acc
}

// refXorPop is the obvious one-word-at-a-time reference.
func refXorPop(a, b []uint64) int {
	acc := 0
	for i := range a {
		acc += bits.OnesCount64(a[i] ^ b[i])
	}
	return acc
}

// widths lists the widths every kernel test asks for, widest first.
var widths = []Width{W512, W256, W64}

func randWords(r *workload.RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func TestXorPopWidthsAgree(t *testing.T) {
	r := workload.NewRNG(1)
	for _, words := range []int{8, 16, 24, 40, 64, 128, 392} {
		a := randWords(r, words)
		b := randWords(r, words)
		want := refXorPop(a, b)
		for _, w := range widths {
			if got := ForWidth(w)(a, b); got != want {
				t.Errorf("words=%d width=%v: got %d want %d", words, w, got, want)
			}
		}
	}
}

func TestXorPop64AnyLength(t *testing.T) {
	r := workload.NewRNG(2)
	for n := 1; n <= 67; n++ {
		a := randWords(r, n)
		b := randWords(r, n)
		if got, want := XorPop64(a, b), refXorPop(a, b); got != want {
			t.Errorf("n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestXorPopZeroOperands(t *testing.T) {
	a := make([]uint64, 16)
	b := make([]uint64, 16)
	for _, w := range widths {
		if got := ForWidth(w)(a, b); got != 0 {
			t.Errorf("width %v on zeros: got %d", w, got)
		}
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	for _, w := range widths {
		if got := ForWidth(w)(a, b); got != 16*64 {
			t.Errorf("width %v zeros^ones: got %d want %d", w, got, 16*64)
		}
	}
}

// TestXorPopQuick cross-checks all widths against the reference on
// quick-generated operands.
func TestXorPopQuick(t *testing.T) {
	f := func(seed uint64, nBlocks uint8) bool {
		n := (int(nBlocks)%32 + 1) * 8 // multiple of 8 so every width applies
		r := workload.NewRNG(seed)
		a := randWords(r, n)
		b := randWords(r, n)
		want := refXorPop(a, b)
		for _, w := range widths {
			if ForWidth(w)(a, b) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrInto(t *testing.T) {
	r := workload.NewRNG(4)
	for _, n := range []int{1, 3, 4, 7, 8, 33} {
		dst := randWords(r, n)
		src := randWords(r, n)
		want := make([]uint64, n)
		for i := range want {
			want[i] = dst[i] | src[i]
		}
		OrInto(dst, src)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d word %d: got %x want %x", n, i, dst[i], want[i])
			}
		}
	}
}

func TestDotMatchesRef(t *testing.T) {
	r := workload.NewRNG(5)
	for _, tc := range []struct{ words, valid int }{
		{1, 64}, {1, 37}, {2, 128}, {2, 100}, {8, 512}, {8, 448},
	} {
		a := randWords(r, tc.words)
		b := randWords(r, tc.words)
		// Clear lanes beyond valid in both operands (the packed-buffer
		// invariant Equation 1 relies on).
		for lane := tc.valid; lane < tc.words*64; lane++ {
			a[lane/64] &^= 1 << uint(lane%64)
			b[lane/64] &^= 1 << uint(lane%64)
		}
		want := DotRef(a, b, tc.valid)
		for _, w := range widths {
			// Equation 1: dot = validLanes − 2·Σ popcount(a XOR b).
			if got := int32(tc.valid) - 2*int32(ForWidth(w)(a, b)); got != want {
				t.Errorf("words=%d valid=%d width=%v: got %d want %d", tc.words, tc.valid, w, got, want)
			}
		}
	}
}

func TestWidthHelpers(t *testing.T) {
	if W64.Bits() != 64 || W256.Bits() != 256 || W512.Bits() != 512 {
		t.Error("Bits() wrong")
	}
	names := map[Width]string{W64: "scalar64", W256: "avx256", W512: "avx512"}
	for w, want := range names {
		if w.String() != want {
			t.Errorf("String(%d) = %q want %q", int(w), w.String(), want)
		}
	}
	if Width(3).String() != "Width(3)" {
		t.Errorf("unknown width String = %q", Width(3).String())
	}
}

func TestForWidthPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ForWidth(3) did not panic")
		}
	}()
	ForWidth(Width(3))
}

// Popcount returns Σ popcount(a[i]).
func Popcount(a []uint64) int {
	acc := 0
	for _, v := range a {
		acc += bits.OnesCount64(v)
	}
	return acc
}

func TestPopcount(t *testing.T) {
	if Popcount([]uint64{0, ^uint64(0), 1}) != 65 {
		t.Error("Popcount wrong")
	}
}
