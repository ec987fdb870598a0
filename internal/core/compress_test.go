package core

import (
	"testing"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// dupFilter rewrites f so every filter k repeats base pattern k%bases —
// after binarization the packed words duplicate across channels with
// ratio ≥ K/bases, the adversarially high-duplication bank.
func dupFilter(f *tensor.Filter, bases int) {
	per := f.KH * f.KW * f.C
	for k := bases; k < f.K; k++ {
		copy(f.Data[k*per:(k+1)*per], f.Data[(k%bases)*per:(k%bases+1)*per])
	}
}

// forcePlan installs a compression plan regardless of the measured
// duplication ratio, so low-duplication banks exercise the compressed
// path too.
func forcePlan(t testing.TB, cv *Conv) {
	t.Helper()
	s := cv.Shape.KH * cv.rowLen // fstride: words per filter
	if err := cv.SetCompression(kernels.BuildCompressPlan(cv.filter.Words, cv.Shape.K, s)); err != nil {
		t.Fatal(err)
	}
}

// equalPacked compares the interiors of two packed planes word for word.
func equalPacked(t testing.TB, label string, want, got *bitpack.Packed) {
	t.Helper()
	for y := 0; y < want.H; y++ {
		for x := 0; x < want.W; x++ {
			ww := want.PixelWords(y, x)
			gw := got.PixelWords(y, x)
			for i := range ww {
				if ww[i] != gw[i] {
					t.Fatalf("%s: pixel (%d,%d) word %d = %016x, want %016x", label, y, x, i, gw[i], ww[i])
				}
			}
		}
	}
}

// buildDupConv is buildConv with an optional duplicated filter bank.
func buildDupConv(t testing.TB, r *workload.RNG, h, w, c, k, kh, kw int, bases int) (*Conv, *bitpack.Packed) {
	t.Helper()
	shape, err := sched.InferConv(h, w, c, k, kh, kw, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.Select(c, feat())
	f := workload.PM1Filter(r, k, kh, kw, c)
	if bases > 0 {
		dupFilter(f, bases)
	}
	cv, err := NewConv(shape, plan, f)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.PM1Tensor(r, h, w, c)
	packed := cv.NewInput()
	bitpack.PackTensorInto(in, packed)
	return cv, packed
}

// TestCompressionAutoSelection pins the load-time threshold: a heavily
// duplicated bank selects the plan, a random wide bank does not (stats
// are still measured), and low-channel banks (the conv1.1 case, ≤ 2^C
// possible words per tap) auto-select.
func TestCompressionAutoSelection(t *testing.T) {
	r := workload.NewRNG(200)
	dup, _ := buildDupConv(t, r, 8, 8, 64, 64, 3, 3, 4)
	if dup.Compression() == nil {
		t.Fatalf("duplicated bank (ratio %v) not selected", dup.CompressionStats().Ratio())
	}
	if got := dup.CompressionStats().Ratio(); got < 16 {
		t.Fatalf("duplicated bank ratio %v, want ≥ 16 (K/bases)", got)
	}
	rnd, _ := buildDupConv(t, r, 8, 8, 64, 64, 3, 3, 0)
	if rnd.Compression() != nil {
		t.Fatalf("random 64-channel bank (ratio %v) unexpectedly selected", rnd.CompressionStats().Ratio())
	}
	if st := rnd.CompressionStats(); st.TotalWords == 0 || st.DistinctWords == 0 {
		t.Fatalf("stats not measured on unselected bank: %+v", st)
	}
	lowC, _ := buildDupConv(t, r, 8, 8, 3, 64, 3, 3, 0)
	if lowC.Compression() == nil {
		t.Fatalf("C=3 bank (≤8 distinct words/position, ratio %v) not selected", lowC.CompressionStats().Ratio())
	}
}

// TestConvCompressedMatchesUncompressed is the core differential pin:
// ForwardPacked, plain and pooled, of a conv with a forced plan equal its
// plan-less twin (Uncompressed) word for word, on high- and
// low-duplication banks, with and without folded thresholds, serial and
// threaded.
func TestConvCompressedMatchesUncompressed(t *testing.T) {
	r := workload.NewRNG(201)
	cases := []struct {
		name           string
		h, w, c, k     int
		kh, kw         int
		bases          int
		pkh, pkw, pstr int
	}{
		{"high-dup", 8, 8, 64, 70, 3, 3, 4, 2, 2, 2},
		{"low-dup", 8, 8, 128, 64, 3, 3, 0, 2, 2, 2},
		{"low-channel", 10, 10, 3, 64, 3, 3, 0, 2, 2, 2},
		{"ragged", 9, 7, 100, 33, 3, 3, 3, 2, 2, 2},
		{"1x1", 8, 8, 256, 128, 1, 1, 2, 2, 2, 2},
		{"5x5", 9, 9, 64, 32, 5, 5, 2, 3, 3, 3},
	}
	for _, tc := range cases {
		for _, withTh := range []bool{false, true} {
			cv, in := buildDupConv(t, r, tc.h, tc.w, tc.c, tc.k, tc.kh, tc.kw, tc.bases)
			if withTh {
				if err := cv.SetThresholds(randThresholds(r, tc.k, cv.validLanes)); err != nil {
					t.Fatal(err)
				}
			}
			forcePlan(t, cv)
			plain := cv.Uncompressed()
			s := cv.Shape
			wpp := sched.Select(tc.k, feat()).Words
			want := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 1, 1)
			got := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 1, 1)
			for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
				plain.ForwardPacked(in, nil, want, ec)
				cv.ForwardPacked(in, nil, got, ec)
				equalPacked(t, tc.name+"/packed", want, got)
			}
			// Fused conv→pool, when the pool geometry is eligible.
			ps, err := sched.InferPool(s.OutH, s.OutW, s.OutC, tc.pkh, tc.pkw, tc.pstr)
			if err != nil || !cv.CanFusePool(ps) {
				continue
			}
			pl, err := NewPool(ps, wpp)
			if err != nil {
				t.Fatal(err)
			}
			fwant := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1)
			fgot := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1)
			for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
				plain.ForwardPacked(in, pl, fwant, ec)
				cv.ForwardPacked(in, pl, fgot, ec)
				equalPacked(t, tc.name+"/fused", fwant, fgot)
			}
		}
	}
}

// TestSetCompressionValidates pins the geometry check and the nil-clear.
func TestSetCompressionValidates(t *testing.T) {
	r := workload.NewRNG(204)
	cv, _ := buildDupConv(t, r, 8, 8, 64, 32, 3, 3, 2)
	if err := cv.SetCompression(kernels.BuildCompressPlan(make([]uint64, 4*2), 4, 2)); err == nil {
		t.Fatal("mismatched conv plan accepted")
	}
	if err := cv.SetCompression(nil); err != nil || cv.Compression() != nil {
		t.Fatal("nil did not clear the conv plan")
	}
}

// FuzzCompressedConv is the differential fuzz harness: arbitrary
// geometries and weight banks — including adversarially low- and
// high-duplication ones — must produce, with a forced plan, output equal
// to the plan-less PressedConv word for word, packed and fused. The seed
// corpus pins an all-words-identical bank (every filter the same, one
// distinct word per position) and an all-words-distinct one.
func FuzzCompressedConv(f *testing.F) {
	// seed, h, w, c, k, bases (0 = independent random filters,
	// 1 = all filters identical), withThresholds.
	f.Add(uint64(1), uint8(8), uint8(8), uint8(64), uint8(32), uint8(1), true)  // all words identical
	f.Add(uint64(2), uint8(8), uint8(8), uint8(255), uint8(16), uint8(0), true) // wide random: words distinct
	f.Add(uint64(3), uint8(6), uint8(9), uint8(3), uint8(40), uint8(0), false)  // conv1.1-style low channel
	f.Add(uint64(4), uint8(9), uint8(7), uint8(100), uint8(33), uint8(3), true) // ragged + 3 bases
	f.Add(uint64(5), uint8(5), uint8(5), uint8(64), uint8(1), uint8(0), false)  // single filter
	f.Fuzz(func(t *testing.T, seed uint64, hh, ww, cc, kk, bb uint8, withTh bool) {
		h := int(hh)%8 + 3
		w := int(ww)%8 + 3
		c := int(cc)%200 + 1
		k := int(kk)%72 + 1
		bases := 0
		if bb > 0 {
			bases = int(bb)%k + 1
		}
		r := workload.NewRNG(seed)
		shape, err := sched.InferConv(h, w, c, k, 3, 3, 1, 1)
		if err != nil {
			t.Skip()
		}
		plan := sched.Select(c, feat())
		fl := workload.PM1Filter(r, k, 3, 3, c)
		if bases > 0 {
			dupFilter(fl, bases)
		}
		cv, err := NewConv(shape, plan, fl)
		if err != nil {
			t.Skip()
		}
		if withTh {
			if err := cv.SetThresholds(randThresholds(r, k, cv.validLanes)); err != nil {
				t.Fatal(err)
			}
		}
		forcePlan(t, cv)
		in := workload.PM1Tensor(r, h, w, c)
		packed := cv.NewInput()
		bitpack.PackTensorInto(in, packed)
		s := cv.Shape
		wpp := sched.Select(k, feat()).Words
		want := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 0, 0)
		got := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 0, 0)
		plain := cv.Uncompressed()
		plain.ForwardPacked(packed, nil, want, exec.Serial())
		cv.ForwardPacked(packed, nil, got, exec.Serial())
		equalPacked(t, "packed", want, got)
		if ps, err := sched.InferPool(s.OutH, s.OutW, s.OutC, 2, 2, 2); err == nil && cv.CanFusePool(ps) {
			pl, err := NewPool(ps, wpp)
			if err != nil {
				t.Fatal(err)
			}
			fwant := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 0, 0)
			fgot := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 0, 0)
			plain.ForwardPacked(packed, pl, fwant, exec.Serial())
			cv.ForwardPacked(packed, pl, fgot, exec.Serial())
			equalPacked(t, "fused", fwant, fgot)
		}
	})
}
