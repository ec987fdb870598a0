package kernels

import (
	"math/rand"
	"testing"
)

// tiers lists the kernel tiers this CPU (and build) executes: always the
// pure-Go W64, plus W256 and W512 where Width.Tier resolves to them.
func tiers() []Width {
	out := []Width{W64}
	for _, w := range []Width{W256, W512} {
		if w.Tier() == w {
			out = append(out, w)
		}
	}
	return out
}

// checkSweep compares every available tier with the pure-Go oracle on one
// shape. Both operands are sub-sliced at odd word offsets of larger
// buffers, so nothing may assume 64-byte (or even 16-byte) alignment, and
// the accumulator is poisoned and guarded to catch short or long writes.
func checkSweep(t *testing.T, rng *rand.Rand, S, K int) {
	t.Helper()
	winBuf := make([]uint64, S+3)
	filtBuf := make([]uint64, K*S+5)
	for i := range winBuf {
		winBuf[i] = rng.Uint64()
	}
	for i := range filtBuf {
		filtBuf[i] = rng.Uint64()
	}
	win := winBuf[1 : 1+S]
	filters := filtBuf[3 : 3+K*S]
	want := make([]int32, K)
	XorPopSweep64(win, filters, want)
	for k := range want {
		if ref := refXorPopBits(win, filters[k*S:(k+1)*S]); int(want[k]) != ref {
			t.Fatalf("oracle S=%d K=%d filter %d: %d, bit-count reference %d", S, K, k, want[k], ref)
		}
	}
	for _, tier := range tiers() {
		accBuf := make([]int32, K+2)
		for i := range accBuf {
			accBuf[i] = -7
		}
		Sweep(tier, win, filters, accBuf[1:1+K])
		if accBuf[0] != -7 || accBuf[K+1] != -7 {
			t.Fatalf("%v S=%d K=%d: wrote outside acc", tier, S, K)
		}
		for k := range want {
			if accBuf[1+k] != want[k] {
				t.Fatalf("%v S=%d K=%d filter %d: got %d want %d", tier, S, K, k, accBuf[1+k], want[k])
			}
		}
	}
}

// TestXorPopSweepShapes walks every tail length of both vector steps and
// every remainder of the four-filter pass.
func TestXorPopSweepShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for S := 0; S <= 41; S++ {
		for K := 0; K <= 9; K++ {
			checkSweep(t, rng, S, K)
		}
	}
	// One-word windows, where each filter is the tail alone.
	for _, K := range []int{15, 16, 17, 63, 64, 65, 130} {
		checkSweep(t, rng, 1, K)
	}
	// The byte-count block of the AVX2 tier wraps at 31 steps (124 words).
	for _, S := range []int{123, 124, 125, 128, 249, 300, 392} {
		checkSweep(t, rng, S, 5)
	}
}

func TestSweepPanicsOnShortBank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sweep with a bank shorter than K·S did not panic")
		}
	}()
	Sweep(W512, make([]uint64, 9), make([]uint64, 17), make([]int32, 2))
}

// FuzzXorPopSweep is the differential test of the assembly tiers against
// the pure-Go oracle: S 0–300 (so every tail 1–7 recurs), K 0–70.
func FuzzXorPopSweep(f *testing.F) {
	f.Add(int64(1), uint16(9), uint8(64))
	f.Add(int64(2), uint16(72), uint8(5))
	f.Add(int64(3), uint16(0), uint8(3))
	f.Add(int64(4), uint16(300), uint8(0))
	f.Add(int64(5), uint16(127), uint8(70))
	// One-word windows, where each filter is the tail alone, over
	// banks short of, at and past 64 filters.
	f.Add(int64(6), uint16(1), uint8(7))
	f.Add(int64(7), uint16(1), uint8(64))
	f.Add(int64(8), uint16(1), uint8(65))
	f.Fuzz(func(t *testing.T, seed int64, s uint16, k uint8) {
		checkSweep(t, rand.New(rand.NewSource(seed)), int(s)%301, int(k)%71)
	})
}
