package core

import (
	"fmt"
	"math"
	"testing"

	"bitflow/internal/baseline"
	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// tiers lists the kernel tiers this CPU (and build) executes: always the
// pure-Go W64, plus W256 and W512 where Width.Tier resolves to them.
func tiers() []kernels.Width {
	out := []kernels.Width{kernels.W64}
	for _, w := range []kernels.Width{kernels.W256, kernels.W512} {
		if w.Tier() == w {
			out = append(out, w)
		}
	}
	return out
}

// edgeThresholds is randThresholds with the encodings the count-domain
// compare must get right pinned on the first channels: a flipped
// MaxInt32 (always on), a straight −MaxInt32 (always on) and a flipped
// MinInt32 (on only at d = MinInt32, so never).
func edgeThresholds(r *workload.RNG, k, span int) *Thresholds {
	th := randThresholds(r, k, span)
	edges := []struct {
		t    int32
		flip bool
	}{{math.MaxInt32, true}, {-math.MaxInt32, false}, {math.MinInt32, true}}
	for c, e := range edges[:min(k, len(edges))] {
		th.T[c], th.Flip[c] = e.t, e.flip
	}
	return th
}

// directBits is the forward computed with no packed code at all:
// baseline.ConvDirect over the ±1 input and filters with −1 padding,
// each pre-activation through the activation (the plain sign d ≥ 0, or
// Thresholds.bit) into a ±1 tensor, then baseline.MaxPoolFloat when ps
// is set.
func directBits(in *tensor.Tensor, f *tensor.Filter, s sched.ConvShape, th *Thresholds, ps *sched.PoolShape) *tensor.Tensor {
	raw := baseline.ConvDirect(in, f, s.Stride, s.Pad, -1, 1)
	act := tensor.New(raw.H, raw.W, raw.C)
	for i, v := range raw.Data {
		on := v >= 0
		if th != nil {
			on = th.bit(i%raw.C, int32(v))
		}
		act.Data[i] = -1
		if on {
			act.Data[i] = 1
		}
	}
	if ps == nil {
		return act
	}
	return baseline.MaxPoolFloat(act, ps.KH, ps.KW, ps.Stride, 1)
}

// checkDirect runs cv's ForwardPacked, unpooled and through each fused
// k×k stride-k max-pool of pools the output holds, serial and on three
// threads, into poisoned margined planes and compares each interior
// with directBits, then checks that the margins are still all zero and
// the tail lanes clean. The unpooled output is also written into a plane
// with one more word per pixel than the K channels need, which must come
// out cleared.
func checkDirect(t *testing.T, label string, cv *Conv, x *tensor.Tensor, f *tensor.Filter, in *bitpack.Packed, pools ...int) {
	t.Helper()
	s := cv.Shape
	wpp := bitpack.WordsFor(s.K)
	type window struct {
		name string
		pl   *Pool
		ps   *sched.PoolShape
		wpp  int
	}
	windows := []window{{name: "unpooled", wpp: wpp}, {name: "unpooled, wide plane", wpp: wpp + 1}}
	for _, k := range pools {
		if ps, err := sched.InferPool(s.OutH, s.OutW, s.OutC, k, k, k); err == nil && cv.CanFusePool(ps) {
			pl, err := NewPool(ps, wpp)
			if err != nil {
				t.Fatal(err)
			}
			windows = append(windows, window{fmt.Sprintf("%dx%d pool", k, k), pl, &ps, wpp})
		}
	}
	for _, w := range windows {
		want := directBits(x, f, s, cv.Activation(), w.ps)
		for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
			out := bitpack.NewPacked(want.H, want.W, want.C, w.wpp, 1, 1)
			for y := 0; y < out.H; y++ {
				for x := 0; x < out.W; x++ {
					px := out.PixelWords(y, x)
					for i := range px {
						px[i] = ^uint64(0) // stale bits must not survive
					}
				}
			}
			cv.ForwardPacked(in, w.pl, out, ec)
			if got := bitpack.Unpack(out); !got.Equal(want) {
				t.Fatalf("%s %s %d workers: ForwardPacked differs from ConvDirect", label, w.name, ec.Budget())
			}
			if !out.MarginsAllZero() || !out.TailClean() {
				t.Fatalf("%s %s: ForwardPacked dirtied margins or tail lanes", label, w.name)
			}
		}
	}
}

// TestWindowPackedMatchesConvDirect is the window-packed forward's
// oracle that shares no code with it: every packing shape of C ∈ {1, 2,
// 3, 4, 7} under 1×1, 3×3, 5×5 and 8×8 windows, stride 1 and 2, pad 0–2,
// on every tier, with the plain sign and with per-channel thresholds
// (flipped and ±MaxInt32 channels), pooled and unpooled, serial and
// threaded, for a random bank and a bank repeating 4 filters, which
// does not fold.
func TestWindowPackedMatchesConvDirect(t *testing.T) {
	r := workload.NewRNG(450)
	ks := []int{5, 20, 70} // 70 spans two output words
	n := 0
	for _, c := range []int{1, 2, 3, 4, 7} {
		for _, kk := range []int{1, 3, 5, 8} {
			if kk*kk*c > bitpack.WordBits {
				continue
			}
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					k := ks[n%len(ks)]
					n++
					shape, err := sched.InferConv(10, 11, c, k, kk, kk, stride, pad)
					if err != nil {
						t.Fatal(err)
					}
					x := workload.PM1Tensor(r, 10, 11, c)
					for _, tier := range tiers() {
						for _, bank := range []string{"random", "repeating"} {
							f := workload.PM1Filter(r, k, kk, kk, c)
							if bank == "repeating" {
								dupFilter(f, 4)
							}
							cv, err := NewConv(shape, tier, f)
							if err != nil {
								t.Fatal(err)
							}
							if cv.WindowWords() != 1 {
								t.Fatalf("%dx%dx%d: %d words per window, want 1", kk, kk, c, cv.WindowWords())
							}
							if cv.Folded() {
								t.Fatalf("%dx%dx%d K=%d %s: window-packed bank folded", kk, kk, c, k, bank)
							}
							in := cv.NewInput()
							bitpack.PackTensorInto(x, in)
							for _, th := range []*Thresholds{nil, edgeThresholds(r, k, cv.validLanes)} {
								if err := cv.SetThresholds(th); err != nil {
									t.Fatal(err)
								}
								label := fmt.Sprintf("%v %dx%dx%d K=%d s%d p%d %s thresholds=%v",
									tier, kk, kk, c, k, stride, pad, bank, th != nil)
								checkDirect(t, label, cv, x, f, in, 2)
							}
						}
					}
				}
			}
		}
	}
}

// TestWindowPackingBoundary pins where the rule switches: a receptive
// field of 63 or 64 bits packs into one word, one of 72 bits keeps its
// 9 channel-packed words, and a 1×1 window's words are its pixel's. Each
// shape is checked against ConvDirect either way.
func TestWindowPackingBoundary(t *testing.T) {
	r := workload.NewRNG(451)
	cases := []struct{ c, kh, kw, words int }{
		{7, 3, 3, 1},  // 63 bits
		{1, 8, 8, 1},  // 64 bits
		{8, 3, 3, 9},  // 72 bits
		{64, 1, 1, 1}, // one full pixel word
		{65, 1, 1, 2}, // two
		{2, 4, 8, 1},  // 64 bits, KW ≠ 3
	}
	for _, tc := range cases {
		shape, err := sched.InferConv(9, 9, tc.c, 66, tc.kh, tc.kw, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := workload.PM1Tensor(r, 9, 9, tc.c)
		f := workload.PM1Filter(r, 66, tc.kh, tc.kw, tc.c)
		for _, tier := range tiers() {
			cv, err := NewConv(shape, tier, f)
			if err != nil {
				t.Fatal(err)
			}
			if got := cv.WindowWords(); got != tc.words {
				t.Fatalf("%dx%dx%d: %d words per window, want %d", tc.kh, tc.kw, tc.c, got, tc.words)
			}
			in := cv.NewInput()
			bitpack.PackTensorInto(x, in)
			checkDirect(t, fmt.Sprintf("%v %dx%dx%d", tier, tc.kh, tc.kw, tc.c), cv, x, f, in, 2)
		}
	}
}

// TestWindowPackedBeyondScratch covers the window-packed forward's
// allocating branch on every tier, against ConvDirect: a 12×12 pool
// window (144 positions of 2 bit words each, past the 128 windows and
// 256 bit words a run holds on the stack), and a stride of 100 under a
// fused 3×3 pool, whose one pixel reads 2·100 + 3 = 203 input columns,
// past the 192 column words.
func TestWindowPackedBeyondScratch(t *testing.T) {
	r := workload.NewRNG(453)
	for _, tc := range []struct{ hw, k, stride, pool int }{
		{12, 70, 1, 12},
		{203, 20, 100, 3},
	} {
		shape, err := sched.InferConv(tc.hw, tc.hw, 3, tc.k, 3, 3, tc.stride, 1)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sched.InferPool(shape.OutH, shape.OutW, tc.k, tc.pool, tc.pool, tc.pool)
		if err != nil {
			t.Fatal(err)
		}
		x := workload.PM1Tensor(r, tc.hw, tc.hw, 3)
		f := workload.PM1Filter(r, tc.k, 3, 3, 3)
		for _, tier := range tiers() {
			cv, err := NewConv(shape, tier, f)
			if err != nil {
				t.Fatal(err)
			}
			if cv.WindowWords() != 1 || !cv.CanFusePool(ps) {
				t.Fatalf("%+v: %d words per window, pool fuses %v", tc, cv.WindowWords(), cv.CanFusePool(ps))
			}
			in := cv.NewInput()
			bitpack.PackTensorInto(x, in)
			checkDirect(t, fmt.Sprintf("%v %+v", tier, tc), cv, x, f, in, tc.pool)
		}
	}
}

// TestNewConvRefusesPadBits: a packed bank with a bit set past C would
// count that lane in the channel-packed sweep and shift it into the next
// tap's lanes in the window re-pack, so NewConvPacked refuses it.
func TestNewConvRefusesPadBits(t *testing.T) {
	shape, err := sched.InferConv(6, 6, 3, 4, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pf := bitpack.PackFilter(workload.PM1Filter(workload.NewRNG(452), 4, 3, 3, 3), 1)
	if _, err := NewConvPacked(shape, kernels.W512, pf); err != nil {
		t.Fatalf("clean bank refused: %v", err)
	}
	pf.Words[13] |= 1 << 3
	if _, err := NewConvPacked(shape, kernels.W512, pf); err == nil {
		t.Fatal("bank with a bit past channel 3 accepted")
	}
}

// FuzzWindowPackedConv checks the window-packed forward against the
// conv's own reference on arbitrary packing shapes: the bits of
// ForwardPacked, pooled or not, must equal Conv.Forward's counts
// thresholded (and OR-ed over each pool window). C is drawn so that
// KH·KW·C ≤ 64.
func FuzzWindowPackedConv(f *testing.F) {
	// seed, h, w, c, k, kh, kw, stride, pad, thresholds, pooled
	f.Add(uint64(1), uint8(31), uint8(31), uint8(2), uint8(63), uint8(3), uint8(3), uint8(0), uint8(1), true, false) // conv1.1's 3×3×3, K = 64
	f.Add(uint64(2), uint8(9), uint8(7), uint8(6), uint8(65), uint8(3), uint8(3), uint8(1), uint8(2), true, true)    // 63 bits, K = 66: two output words
	f.Add(uint64(3), uint8(12), uint8(12), uint8(0), uint8(7), uint8(8), uint8(8), uint8(0), uint8(0), false, true)  // 64 bits
	f.Add(uint64(4), uint8(5), uint8(9), uint8(63), uint8(20), uint8(1), uint8(1), uint8(1), uint8(0), false, false) // 1×1, C = 64
	f.Fuzz(func(t *testing.T, seed uint64, hh, ww, cc, kk, khh, kww, ss, pp uint8, withTh, pooled bool) {
		kh, kw := int(khh)%8+1, int(kww)%8+1
		c := int(cc)%(bitpack.WordBits/(kh*kw)) + 1
		h, w, k := int(hh)%24+1, int(ww)%24+1, int(kk)%130+1
		shape, err := sched.InferConv(h, w, c, k, kh, kw, int(ss)%2+1, int(pp)%3)
		if err != nil {
			t.Skip()
		}
		r := workload.NewRNG(seed)
		cv, err := NewConv(shape, kernels.W512, workload.PM1Filter(r, k, kh, kw, c))
		if err != nil {
			t.Fatal(err)
		}
		if cv.WindowWords() != 1 {
			t.Fatalf("%dx%dx%d: %d words per window, want 1", kh, kw, c, cv.WindowWords())
		}
		if withTh {
			if err := cv.SetThresholds(edgeThresholds(r, k, cv.validLanes)); err != nil {
				t.Fatal(err)
			}
		}
		in := cv.NewInput()
		bitpack.PackTensorInto(workload.PM1Tensor(r, h, w, c), in)
		pk := 1
		if pooled {
			pk = 2
		}
		ps, err := sched.InferPool(shape.OutH, shape.OutW, k, pk, pk, pk)
		if err != nil {
			t.Skip()
		}
		pl, err := NewPool(ps, bitpack.WordsFor(k))
		if err != nil {
			t.Fatal(err)
		}
		fc := fusedCase{
			cv: cv, pl: pl, in: in,
			raw:  tensor.New(shape.OutH, shape.OutW, shape.OutC),
			want: bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, bitpack.WordsFor(k), 1, 1),
			got:  bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, bitpack.WordsFor(k), 1, 1),
		}
		fc.check(t, fmt.Sprintf("%dx%dx%d K=%d %+v", kh, kw, c, k, ps), exec.Serial())
	})
}
