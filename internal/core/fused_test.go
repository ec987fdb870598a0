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
	conv *bitpack.Packed // unfused conv output
	want *bitpack.Packed // unfused pool output
	got  *bitpack.Packed // fused output
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
		conv: bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, wpp, 0, 0),
		want: bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1),
		got:  bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1),
	}
}

func (fc *fusedCase) check(t *testing.T, label string, ec *exec.Ctx) {
	t.Helper()
	fc.cv.ForwardPacked(fc.in, fc.conv, ec)
	fc.pl.Forward(fc.conv, fc.want, ec)
	// Poison the fused destination: stale interior bits must be
	// overwritten, margins must stay untouched.
	for i := range fc.got.Words {
		fc.got.Words[i] = ^uint64(0)
	}
	for y := 0; y < fc.got.H; y++ {
		for x := 0; x < fc.got.W; x++ {
			clear(fc.got.PixelWords(y, x))
		}
	}
	fc.cv.ForwardFused(fc.in, fc.pl, fc.got, ec)
	for y := 0; y < fc.want.H; y++ {
		for x := 0; x < fc.want.W; x++ {
			ww := fc.want.PixelWords(y, x)
			gw := fc.got.PixelWords(y, x)
			for i := range ww {
				if ww[i] != gw[i] {
					t.Fatalf("%s: fused pixel (%d,%d) word %d = %016x, want %016x",
						label, y, x, i, gw[i], ww[i])
				}
			}
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

func TestConvForwardFusedNilPoolIsForwardPacked(t *testing.T) {
	r := workload.NewRNG(92)
	cv, _, packed := buildConv(t, r, 6, 6, 64, 40, 3, 3, 1, 1)
	wpp := sched.Select(40, feat()).Words
	a := bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, wpp, 0, 0)
	b := bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, wpp, 0, 0)
	cv.ForwardPacked(packed, a, exec.Serial())
	cv.ForwardFused(packed, nil, b, exec.Serial())
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatalf("nil-pool fused differs from ForwardPacked at word %d", i)
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

func TestMultiBaseForwardFusedMatchesForward(t *testing.T) {
	r := workload.NewRNG(95)
	h, w, c, k := 7, 7, 64, 70
	shape, err := sched.InferConv(h, w, c, k, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.Select(c, feat())
	f := workload.RandFilter(r, k, 3, 3, c)
	mc, err := NewMultiBaseConv(shape, plan, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.PM1Tensor(r, h, w, c)
	packed := mc.NewInput()
	bitpack.PackTensorInto(in, packed)

	ref := tensor.New(shape.OutH, shape.OutW, shape.OutC)
	mc.Forward(packed, ref, exec.Serial())
	thr := make([]float32, k)
	for i := range thr {
		thr[i] = float32(r.Intn(11) - 5)
	}
	for _, th := range [][]float32{nil, thr} {
		out := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, bitpack.WordsFor(k), 0, 0)
		mc.ForwardFused(packed, th, out, exec.Threads(2))
		for y := 0; y < shape.OutH; y++ {
			for x := 0; x < shape.OutW; x++ {
				words := out.PixelWords(y, x)
				px := ref.Pixel(y, x)
				for kk := 0; kk < k; kk++ {
					var tv float32
					if th != nil {
						tv = th[kk]
					}
					want := px[kk] >= tv
					got := words[kk/bitpack.WordBits]>>uint(kk%bitpack.WordBits)&1 == 1
					if got != want {
						t.Fatalf("multibase fused (%d,%d) k=%d: got %v, want %v (acc=%g thr=%g)",
							y, x, kk, got, want, px[kk], tv)
					}
				}
			}
		}
	}
}

func TestMultiBitForwardFusedMatchesForward(t *testing.T) {
	r := workload.NewRNG(96)
	h, w, c, k := 6, 6, 64, 66
	shape, err := sched.InferConv(h, w, c, k, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.Select(c, feat())
	f := workload.PM1Filter(r, k, 3, 3, c)
	mb, err := NewMultiBitConv(shape, plan, f, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.RandTensor(r, h, w, c)
	planes := mb.NewPlanes()
	mb.PackPlanes(in, planes)

	ref := tensor.New(shape.OutH, shape.OutW, shape.OutC)
	mb.Forward(planes, ref, exec.Serial())
	thr := make([]float32, k)
	for i := range thr {
		thr[i] = float32(r.Intn(7)-3) / 2
	}
	for _, th := range [][]float32{nil, thr} {
		out := bitpack.NewPacked(shape.OutH, shape.OutW, shape.OutC, bitpack.WordsFor(k), 0, 0)
		mb.ForwardFused(planes, th, out, exec.Threads(2))
		for y := 0; y < shape.OutH; y++ {
			for x := 0; x < shape.OutW; x++ {
				words := out.PixelWords(y, x)
				px := ref.Pixel(y, x)
				for kk := 0; kk < k; kk++ {
					var tv float32
					if th != nil {
						tv = th[kk]
					}
					want := px[kk] >= tv
					got := words[kk/bitpack.WordBits]>>uint(kk%bitpack.WordBits)&1 == 1
					if got != want {
						t.Fatalf("multibit fused (%d,%d) k=%d: got %v, want %v (acc=%g thr=%g)",
							y, x, kk, got, want, px[kk], tv)
					}
				}
			}
		}
	}
}
