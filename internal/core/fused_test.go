package core

import (
	"testing"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// randThresholds builds a folded activation exercising both comparison
// directions and the extreme encodings (γ=0 constants, MaxInt32 overflow
// probe for the flipped T+1 adjustment).
func randThresholds(r *workload.RNG, k, span int) *Thresholds {
	th := NewThresholds(k)
	for c := 0; c < k; c++ {
		switch r.Intn(8) {
		case 0:
			th.T[c] = 1<<31 - 1 // MaxInt32
		case 1:
			th.T[c] = -1 << 31 // MinInt32
		default:
			th.T[c] = int32(r.Intn(2*span+1) - span)
		}
		th.Flip[c] = r.Intn(2) == 0
	}
	return th
}

// fusedCase wires a conv (+thresholds) and an eligible pool.
type fusedCase struct {
	cv   *Conv
	pl   *Pool
	in   *bitpack.Packed
	raw  *tensor.Tensor  // Conv.Forward's raw inner products
	want *bitpack.Packed // reference pooled bits
	got  *bitpack.Packed // ForwardPacked with the pool
}

func buildFused(t *testing.T, r *workload.RNG, h, w, c, k, kh, kw, stride, pad, pkh, pkw, pstride int, withTh bool) fusedCase {
	t.Helper()
	cv, _, packed := buildConv(t, r, h, w, c, k, kh, kw, stride, pad)
	if withTh {
		if err := cv.SetThresholds(randThresholds(r, k, cv.validLanes)); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := sched.InferPool(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, pkh, pkw, pstride)
	if err != nil {
		t.Fatal(err)
	}
	wpp := sched.Select(k, feat()).Words
	pl, err := NewPool(ps, wpp)
	if err != nil {
		t.Fatal(err)
	}
	return fusedCase{
		cv: cv, pl: pl, in: packed,
		raw:  tensor.New(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC),
		want: bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1),
		got:  bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1),
	}
}

// reference fills want the obviously-right way: Conv.Forward's raw
// inner products d, the activation per channel (Thresholds.bit, or the
// plain sign d ≥ 0), and max-pool as the OR of those bits over each
// window.
func (fc *fusedCase) reference(ec *exec.Ctx) {
	fc.cv.Forward(fc.in, fc.raw, ec)
	p, th := fc.pl.Shape, fc.cv.Activation()
	for py := 0; py < p.OutH; py++ {
		for px := 0; px < p.OutW; px++ {
			dst := fc.want.PixelWords(py, px)
			clear(dst)
			for k := 0; k < p.OutC; k++ {
				bit := false
				for i := 0; i < p.KH; i++ {
					for j := 0; j < p.KW; j++ {
						d := int32(fc.raw.Pixel(py*p.Stride+i, px*p.Stride+j)[k])
						if th == nil {
							bit = bit || d >= 0
						} else {
							bit = bit || th.bit(k, d)
						}
					}
				}
				if bit {
					dst[k/bitpack.WordBits] |= 1 << uint(k%bitpack.WordBits)
				}
			}
		}
	}
}

func (fc *fusedCase) check(t *testing.T, label string, ec *exec.Ctx) {
	t.Helper()
	fc.reference(ec)
	// Poison the whole destination: stale interior bits must be
	// overwritten, margins must stay untouched.
	for i := range fc.got.Words {
		fc.got.Words[i] = ^uint64(0)
	}
	fc.cv.ForwardPacked(fc.in, fc.pl, fc.got, ec)
	equalPacked(t, label, fc.want, fc.got)
	interior := make([]bool, len(fc.got.Words))
	for y := 0; y < fc.got.H; y++ {
		for x := 0; x < fc.got.W; x++ {
			off := fc.got.PixelOffset(y, x)
			for i := 0; i < fc.got.WPP; i++ {
				interior[off+i] = true
			}
		}
	}
	for i, v := range fc.got.Words {
		if !interior[i] && v != ^uint64(0) {
			t.Fatalf("%s: margin word %d overwritten", label, i)
		}
	}
}

func TestConvForwardFusedMatchesUnfused(t *testing.T) {
	r := workload.NewRNG(90)
	cases := []struct {
		name                                          string
		h, w, c, k, kh, kw, stride, pad, pkh, pkw, ps int
	}{
		{"vgg2x2", 8, 8, 64, 70, 3, 3, 1, 1, 2, 2, 2},
		{"3x3pool", 9, 9, 128, 64, 3, 3, 1, 1, 3, 3, 3},
		{"ragged", 9, 7, 100, 33, 3, 3, 1, 1, 2, 2, 2}, // dropped conv pixels + partial words
		{"stride>win", 10, 10, 64, 16, 3, 3, 1, 1, 2, 2, 3},
		{"1x1conv", 8, 8, 256, 128, 1, 1, 1, 0, 2, 2, 2},
		{"wideK", 6, 6, 64, 200, 3, 3, 1, 1, 2, 2, 2},
		{"convstride2", 16, 16, 64, 32, 3, 3, 2, 1, 2, 2, 2},
	}
	for _, tc := range cases {
		for _, withTh := range []bool{false, true} {
			fc := buildFused(t, r, tc.h, tc.w, tc.c, tc.k, tc.kh, tc.kw, tc.stride, tc.pad, tc.pkh, tc.pkw, tc.ps, withTh)
			fc.check(t, tc.name, exec.Serial())
		}
	}
}

func TestConvForwardFusedThreadsAgree(t *testing.T) {
	r := workload.NewRNG(91)
	fc := buildFused(t, r, 12, 12, 128, 96, 3, 3, 1, 1, 2, 2, 2, true)
	fc.check(t, "serial", exec.Serial())
	serial := append([]uint64(nil), fc.got.Words...)
	for _, threads := range []int{2, 4, 16} {
		fc.check(t, "threads", exec.Threads(threads))
		for i, v := range fc.got.Words {
			if v != serial[i] {
				t.Fatalf("threads=%d: word %d differs from serial", threads, i)
			}
		}
	}
}

func TestCanFusePool(t *testing.T) {
	r := workload.NewRNG(93)
	cv, _, _ := buildConv(t, r, 8, 8, 64, 16, 3, 3, 1, 1) // out 8x8x16
	ok := func(kh, kw, stride int) bool {
		ps, err := sched.InferPool(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, kh, kw, stride)
		if err != nil {
			t.Fatal(err)
		}
		return cv.CanFusePool(ps)
	}
	if !ok(2, 2, 2) || !ok(3, 3, 3) || !ok(2, 2, 3) || !ok(1, 1, 1) {
		t.Error("non-overlapping pools should fuse")
	}
	if ok(2, 2, 1) || ok(3, 3, 2) {
		t.Error("overlapping pools must not fuse")
	}
	// Geometry mismatch: pool sized for a different input plane.
	ps, err := sched.InferPool(4, 4, 16, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cv.CanFusePool(ps) {
		t.Error("pool over mismatched geometry must not fuse")
	}
}
