package kernels

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"bitflow/internal/bitpack"
)

// refEpilogueBits is the naive unfused reference the fused epilogue must
// match: per filter, accumulate popcounts one bit at a time, form the
// pre-activation d = n - 2·acc, and evaluate the original two-branch
// threshold (d ≥ T, or d ≤ T when flipped).
func refEpilogueBits(rows [][]uint64, fw []uint64, fstride int, n int, t []int32, flip []bool) []bool {
	bits := make([]bool, len(t))
	for k := range t {
		base := k * fstride
		acc := 0
		off := 0
		for _, r := range rows {
			acc += refXorPopBits(r, fw[base+off:base+off+len(r)])
			off += len(r)
		}
		d := int64(n) - 2*int64(acc)
		if flip[k] {
			bits[k] = d <= int64(t[k])
		} else {
			bits[k] = d >= int64(t[k])
		}
	}
	return bits
}

func packBools(bits []bool, wpp int) []uint64 {
	out := make([]uint64, wpp)
	for c, b := range bits {
		if b {
			out[c/bitpack.WordBits] |= 1 << uint(c%bitpack.WordBits)
		}
	}
	return out
}

// epilogueCase is one randomized conv+threshold(+pool) instance.
type epilogueCase struct {
	K, KH, rowLen int
	n             int
	t             []int32
	flip          []bool
	fw            []uint64
	// windows holds one gathered receptive field per pool-window position.
	windows [][][]uint64
}

func randomCase(rng *rand.Rand, positions int) epilogueCase {
	c := epilogueCase{
		K:      1 + rng.Intn(130),
		KH:     1 + rng.Intn(3),
		rowLen: 1 + rng.Intn(5),
	}
	fstride := c.KH * c.rowLen
	// n is the valid lane count; keep it inside the word capacity so d
	// spans realistic positive and negative values.
	c.n = 1 + rng.Intn(fstride*64)
	c.t = make([]int32, c.K)
	c.flip = make([]bool, c.K)
	for k := range c.t {
		switch rng.Intn(5) {
		case 0:
			c.t[k] = math.MaxInt32 // overflow probe for the T+1 adjustment
		case 1:
			c.t[k] = math.MinInt32 // the γ=0 constant encoding
		default:
			c.t[k] = int32(rng.Intn(2*c.n+1) - c.n)
		}
		c.flip[k] = rng.Intn(2) == 0
	}
	c.fw = make([]uint64, c.K*fstride)
	for i := range c.fw {
		c.fw[i] = rng.Uint64()
	}
	for p := 0; p < positions; p++ {
		rows := make([][]uint64, c.KH)
		for i := range rows {
			r := make([]uint64, c.rowLen)
			for j := range r {
				r[j] = rng.Uint64()
			}
			rows[i] = r
		}
		c.windows = append(c.windows, rows)
	}
	return c
}

func (c *epilogueCase) fstride() int { return c.KH * c.rowLen }

// refFused computes the OR of the per-position reference bits — the
// unfused conv → threshold → binarize → max-pool answer.
func (c *epilogueCase) refFused() []uint64 {
	wpp := bitpack.WordsFor(c.K)
	out := make([]uint64, wpp)
	for _, rows := range c.windows {
		bits := refEpilogueBits(rows, c.fw, c.fstride(), c.n, c.t, c.flip)
		for w, v := range packBools(bits, wpp) {
			out[w] |= v
		}
	}
	return out
}

func checkCase(t *testing.T, c epilogueCase) {
	t.Helper()
	wpp := bitpack.WordsFor(c.K)
	want := c.refFused()
	win := make([]uint64, 0, c.fstride())
	acc := make([]int32, c.K)
	for _, tier := range tiers() {
		e := NewEpilogue(c.t, c.flip).ForPopcounts(int32(c.n))
		e.Tier = tier
		// First position overwrites, the rest OR in.
		dst := make([]uint64, wpp+1) // +1 trailing word must be cleared by Pack
		for i := range dst {
			dst[i] = ^uint64(0) // poison: stale bits must not survive
		}
		for p, rows := range c.windows {
			win = win[:0]
			for _, r := range rows {
				win = append(win, r...)
			}
			Sweep(tier, win, c.fw, acc)
			if p == 0 {
				e.Pack(acc, dst)
			} else {
				e.PackOr(acc, dst)
			}
		}
		for w := 0; w < wpp; w++ {
			if dst[w] != want[w] {
				t.Fatalf("%v: sweep + Pack(Or) word %d = %016x, want %016x (K=%d KH=%d rowLen=%d n=%d pos=%d)",
					tier, w, dst[w], want[w], c.K, c.KH, c.rowLen, c.n, len(c.windows))
			}
		}
		if dst[wpp] != 0 {
			t.Fatalf("%v: Pack left trailing word %016x, want 0", tier, dst[wpp])
		}
	}
}

func TestConvEpilogueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		checkCase(t, randomCase(rng, 1+rng.Intn(4)))
	}
}

// checkPack pins Pack and PackOr on every tier this CPU executes to the
// two-branch reference (d ≥ T, or d ≤ T when flipped), compared in 64
// bits so thresholds at ±MaxInt32 cannot hide an overflow.
func checkPack(t *testing.T, d, d2, tv []int32, flip []bool) {
	t.Helper()
	K := len(d)
	wpp := bitpack.WordsFor(K)
	ref := func(d []int32) []uint64 {
		bits := make([]bool, K)
		for k := range bits {
			if flip[k] {
				bits[k] = int64(d[k]) <= int64(tv[k])
			} else {
				bits[k] = int64(d[k]) >= int64(tv[k])
			}
		}
		return packBools(bits, wpp)
	}
	want, want2 := ref(d), ref(d2)
	for _, tier := range tiers() {
		e := NewEpilogue(tv, flip)
		e.Tier = tier
		dst := make([]uint64, wpp+1)
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		e.Pack(d, dst)
		for w := 0; w < wpp; w++ {
			if dst[w] != want[w] {
				t.Fatalf("%v: Pack word %d = %016x, want %016x (K=%d)", tier, w, dst[w], want[w], K)
			}
		}
		if dst[wpp] != 0 {
			t.Fatalf("%v: Pack left trailing word %016x, want 0", tier, dst[wpp])
		}
		// PackOr of a second plane must equal the OR of two Packs.
		e.PackOr(d2, dst)
		for w := 0; w < wpp; w++ {
			if dst[w] != want[w]|want2[w] {
				t.Fatalf("%v: PackOr word %d = %016x, want %016x (K=%d)", tier, w, dst[w], want[w]|want2[w], K)
			}
		}
	}
}

func TestPackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// extreme draws the values where the T+1 adjustment and a 32-bit
	// compare could go wrong, otherwise a small range with many ties.
	extreme := func() int32 {
		switch rng.Intn(8) {
		case 0:
			return math.MaxInt32
		case 1:
			return math.MinInt32
		case 2:
			return math.MaxInt32 - 1
		}
		return int32(rng.Intn(100) - 50)
	}
	for trial := 0; trial < 300; trial++ {
		K := 1 + rng.Intn(200) // mostly off the 16- and 64-channel steps
		tv := make([]int32, K)
		flip := make([]bool, K)
		d := make([]int32, K)
		d2 := make([]int32, K)
		for k := 0; k < K; k++ {
			tv[k], d[k], d2[k] = extreme(), extreme(), extreme()
			flip[k] = rng.Intn(2) == 0
		}
		checkPack(t, d, d2, tv, flip)
	}
}

// TestSignEpilogueIsPlainSign pins NewSignEpilogue to Equation 3.
func TestSignEpilogueIsPlainSign(t *testing.T) {
	e := NewSignEpilogue(3)
	dst := make([]uint64, 1)
	e.Pack([]int32{-1, 0, 5}, dst)
	if dst[0] != 0b110 {
		t.Fatalf("sign epilogue packed %03b, want 110", dst[0])
	}
}

// FuzzFusedEpilogue drives the fused conv→threshold→binarize(→pool)
// ladder against the naive unfused reference over arbitrary shapes,
// thresholds, flips, and pool-window position counts derived from the
// fuzz input.
func FuzzFusedEpilogue(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(-99), uint8(4))
	f.Add(int64(math.MaxInt64), uint8(2))
	f.Add(int64(424242), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, positions uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkCase(t, randomCase(rng, 1+int(positions%6)))
	})
}

// FuzzEpiloguePack checks Pack/PackOr on every available tier against the
// two-branch reference on raw byte-derived pre-activations and thresholds.
func FuzzEpiloguePack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00, 0x01, 0xFF, 0x7F, 0xFE, 0x10, 0x20, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Layout: per channel 4 bytes d, 4 bytes T, 1 byte flip.
		K := len(data) / 9
		if K == 0 {
			return
		}
		d := make([]int32, K)
		tv := make([]int32, K)
		flip := make([]bool, K)
		for k := 0; k < K; k++ {
			off := k * 9
			d[k] = int32(binary.LittleEndian.Uint32(data[off:]))
			tv[k] = int32(binary.LittleEndian.Uint32(data[off+4:]))
			flip[k] = data[off+8]&1 == 1
		}
		d2 := make([]int32, K)
		for k := range d2 {
			d2[k] = tv[K-1-k]
		}
		checkPack(t, d, d2, tv, flip)
	})
}

// TestSweepBitsMatchesSweepAndPack pins the fused one-word sweep and
// compare to the two steps it fuses, a one-word Sweep and then Pack, per
// window, on every tier this CPU executes, for K = 1–130 (every tail of
// the eight-filter step and of the 64-channel word) over runs of 0 to 9
// windows. Thresholds are drawn in the count domain around the popcount
// range [0, 64], with ±MaxInt32 extremes that only a sign-extending
// compare gets right. The destination is poisoned: every word is written.
func TestSweepBitsMatchesSweepAndPack(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for K := 1; K <= 130; K++ {
		bank := make([]uint64, K)
		for i := range bank {
			bank[i] = rng.Uint64() & rng.Uint64() // popcounts cluster below 32
		}
		e := NewSignEpilogue(K)
		for c := range e.T {
			switch rng.Intn(10) {
			case 0:
				e.T[c] = math.MaxInt32
			case 1:
				e.T[c] = math.MinInt32
			default:
				e.T[c] = int32(rng.Intn(70) - 3)
			}
			if rng.Intn(2) == 0 {
				e.Flip[c/bitpack.WordBits] |= 1 << uint(c%bitpack.WordBits)
			}
		}
		wins := make([]uint64, K%10)
		for i := range wins {
			wins[i] = rng.Uint64()
		}
		W := bitpack.WordsFor(K)
		for _, tier := range tiers() {
			e.Tier = tier
			acc := make([]int32, K)
			want := make([]uint64, len(wins)*W)
			for i, w := range wins {
				Sweep(tier, []uint64{w}, bank, acc)
				e.Pack(acc, want[i*W:(i+1)*W])
			}
			got := make([]uint64, len(wins)*W+1)
			for i := range got {
				got[i] = ^uint64(0)
			}
			e.SweepBits(wins, bank, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v K=%d: SweepBits window %d word %d = %016x, Sweep + Pack %016x", tier, K, i/W, i%W, got[i], want[i])
				}
			}
			if got[len(want)] != ^uint64(0) {
				t.Fatalf("%v K=%d: SweepBits wrote past its %d windows", tier, K, len(wins))
			}
		}
	}
}

func TestSweepBitsPanicsOnShape(t *testing.T) {
	e := NewSignEpilogue(3)
	for name, fn := range map[string]func(){
		"K+1 filters": func() { e.SweepBits(make([]uint64, 2), make([]uint64, 4), make([]uint64, 2)) },
		"short bits":  func() { e.SweepBits(make([]uint64, 2), make([]uint64, 3), make([]uint64, 1)) },
		"K-1 thresholds": func() {
			(&Epilogue{K: 3, T: make([]int32, 2), Flip: make([]uint64, 1)}).SweepBits(nil, make([]uint64, 3), nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SweepBits with %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
