package core

import (
	"fmt"
	"math"
	"slices"
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

// scatterFilter is dupFilter with the channels shuffled: filter k
// repeats base pattern b_k, where b is a random permutation of k%bases,
// so repeats come before first appearances and a channel's filter index
// is not k%bases.
func scatterFilter(r *workload.RNG, f *tensor.Filter, bases int) {
	per := f.KH * f.KW * f.C
	base := slices.Clone(f.Data[:bases*per])
	b := make([]int, f.K)
	for k := range b {
		b[k] = k % bases
	}
	for k := len(b) - 1; k > 0; k-- {
		j := r.Intn(k + 1)
		b[k], b[j] = b[j], b[k]
	}
	for k, bk := range b {
		copy(f.Data[k*per:(k+1)*per], base[bk*per:(bk+1)*per])
	}
}

// buildDupConv is buildConv with an optional duplicated filter bank.
func buildDupConv(t testing.TB, r *workload.RNG, h, w, c, k, kh, kw int, bases int) (*Conv, *bitpack.Packed) {
	t.Helper()
	shape, err := sched.InferConv(h, w, c, k, kh, kw, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tier := feat().MaxWidth
	f := workload.PM1Filter(r, k, kh, kw, c)
	if bases > 0 {
		dupFilter(f, bases)
	}
	cv, err := NewConv(shape, tier, f)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.PM1Tensor(r, h, w, c)
	packed := cv.NewInput()
	bitpack.PackTensorInto(in, packed)
	return cv, packed
}

// TestCompressionAutoSelection pins the load-time rule: a bank repeating
// 4 whole filters folds onto them, a random bank keeps its K distinct
// filters and sweeps them all, and a low-channel bank (the conv1.1 case)
// folds when its filters repeat and sweeps when they do not — a whole
// filter has no dead bits, so no channel floor applies.
func TestCompressionAutoSelection(t *testing.T) {
	r := workload.NewRNG(200)
	for _, c := range []int{64, 3} {
		dup, _ := buildDupConv(t, r, 8, 8, c, 64, 3, 3, 4)
		if !dup.Folded() || dup.DistinctFilters() != 4 {
			t.Fatalf("C=%d: four-filter bank folded=%v with %d distinct filters, want folded onto 4",
				c, dup.Folded(), dup.DistinctFilters())
		}
		rnd, _ := buildDupConv(t, r, 8, 8, c, 64, 3, 3, 0)
		if rnd.Folded() || rnd.DistinctFilters() != 64 {
			t.Fatalf("C=%d: random bank folded=%v with %d distinct filters, want 64 swept",
				c, rnd.Folded(), rnd.DistinctFilters())
		}
	}
}

// TestFoldThreshold pins kernels.CompressMinRatio as a ratio of filters:
// a bank of K filters with F = K/4 distinct ones, in shuffled channel
// order, folds and one with F = K/4 + 1 sweeps, at sub-word, one-word
// and eight-word channel counts and K on and off the 64-lane grid;
// either way ForwardPacked equals the unfolded twin word for word,
// pooled and unpooled, serial and threaded.
func TestFoldThreshold(t *testing.T) {
	r := workload.NewRNG(207)
	for _, C := range []int{3, 64, 512} {
		for _, K := range []int{64, 72} {
			for _, F := range []int{K / 4, K/4 + 1} {
				label := fmt.Sprintf("C=%d K=%d F=%d", C, K, F)
				shape, err := sched.InferConv(6, 6, C, K, 3, 3, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				f := workload.PM1Filter(r, K, 3, 3, C)
				scatterFilter(r, f, F)
				cv, err := NewConv(shape, feat().MaxWidth, f)
				if err != nil {
					t.Fatal(err)
				}
				in := cv.NewInput()
				bitpack.PackTensorInto(workload.PM1Tensor(r, 6, 6, C), in)
				if cv.DistinctFilters() != F {
					t.Fatalf("%s: %d distinct filters", label, cv.DistinctFilters())
				}
				if want := F == K/4; cv.Folded() != want {
					t.Fatalf("%s: folded=%v, want %v", label, cv.Folded(), want)
				}
				if err := cv.SetThresholds(randThresholds(r, K, cv.validLanes)); err != nil {
					t.Fatal(err)
				}
				checkAgainstUncompressed(t, label, cv, in)
			}
		}
	}
}

// TestFoldedSweepMatchesUncompressed pins the folded accumulate step:
// a bank repeating F whole filters folds, and its ForwardPacked — one sweep over the F distinct filters, the counts
// copied out to all K channels — equals the plan-less twin word for
// word, plain and pooled, on every kernel tier. K = 72 is off the
// 64-lane grid, K = 512 is VGG's widest bank; the thresholds flip
// channels and pin some at ±MaxInt32, so duplicate channels threshold
// the same count differently.
func TestFoldedSweepMatchesUncompressed(t *testing.T) {
	r := workload.NewRNG(205)
	for _, w := range []kernels.Width{kernels.W64, kernels.W256, kernels.W512} {
		ft := sched.Detect().WithMaxWidth(w)
		for _, K := range []int{72, 512} {
			for _, F := range []int{1, 3, 4, 5} {
				label := fmt.Sprintf("%v K=%d F=%d", w, K, F)
				shape, err := sched.InferConv(6, 6, 64, K, 3, 3, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				f := workload.PM1Filter(r, K, 3, 3, 64)
				dupFilter(f, F)
				cv, err := NewConv(shape, ft.MaxWidth, f)
				if err != nil {
					t.Fatal(err)
				}
				if !cv.Folded() || cv.DistinctFilters() != F {
					t.Fatalf("%s: bank did not fold to %d filters", label, F)
				}
				th := randThresholds(r, K, cv.validLanes)
				th.T[0], th.Flip[0] = math.MaxInt32, false
				th.T[1], th.Flip[1] = math.MinInt32, true
				th.T[2], th.Flip[2] = math.MaxInt32, true
				th.T[3], th.Flip[3] = math.MinInt32, false
				if err := cv.SetThresholds(th); err != nil {
					t.Fatal(err)
				}
				in := workload.PM1Tensor(r, 6, 6, 64)
				packed := cv.NewInput()
				bitpack.PackTensorInto(in, packed)
				checkAgainstUncompressed(t, label, cv, packed)
			}
		}
	}
}

// TestWordRepeatsWithoutFilterRepeatsSweeps pins the other side of the
// fold: a bank whose words repeat at every position (four per tap) but
// whose 64 filters are all distinct does not fold, so its forward sweeps
// all 64 filters — and equals the unfolded twin word for word.
func TestWordRepeatsWithoutFilterRepeatsSweeps(t *testing.T) {
	r := workload.NewRNG(206)
	const K, C = 64, 64
	shape, err := sched.InferConv(6, 6, C, K, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bases := workload.PM1Filter(r, 4, 3, 3, C)
	f := workload.PM1Filter(r, K, 3, 3, C)
	// Filter k's tap p copies base digit p%3 of k written in base 4: the
	// 64 filters differ in at least one tap, each tap has 4 words.
	per := 3 * 3 * C
	for k := 0; k < K; k++ {
		for p := 0; p < 9; p++ {
			b := k >> (2 * (p % 3)) & 3
			copy(f.Data[k*per+p*C:k*per+(p+1)*C], bases.Data[b*per+p*C:b*per+(p+1)*C])
		}
	}
	cv, err := NewConv(shape, feat().MaxWidth, f)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Folded() || cv.DistinctFilters() != K {
		t.Fatalf("folded=%v with %d distinct filters, want all %d swept", cv.Folded(), cv.DistinctFilters(), K)
	}
	if err := cv.SetThresholds(randThresholds(r, K, cv.validLanes)); err != nil {
		t.Fatal(err)
	}
	in := workload.PM1Tensor(r, 6, 6, C)
	packed := cv.NewInput()
	bitpack.PackTensorInto(in, packed)
	checkAgainstUncompressed(t, "word repeats", cv, packed)
}

// checkAgainstUncompressed runs cv's ForwardPacked, plain and through a
// fused 2×2 pool, serial and threaded, and compares each output with
// the unfolded twin cv.Uncompressed()'s word for word.
func checkAgainstUncompressed(t *testing.T, label string, cv *Conv, in *bitpack.Packed) {
	t.Helper()
	plain := cv.Uncompressed()
	s := cv.Shape
	wpp := bitpack.WordsFor(s.K)
	ps, err := sched.InferPool(s.OutH, s.OutW, s.OutC, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPool(ps, wpp)
	if err != nil {
		t.Fatal(err)
	}
	for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
		want := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 1, 1)
		got := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 1, 1)
		plain.ForwardPacked(in, nil, want, ec)
		cv.ForwardPacked(in, nil, got, ec)
		equalPacked(t, label+"/packed", want, got)
		fwant := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 0, 0)
		fgot := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 0, 0)
		plain.ForwardPacked(in, pl, fwant, ec)
		cv.ForwardPacked(in, pl, fgot, ec)
		equalPacked(t, label+"/pooled", fwant, fgot)
	}
}

// TestConvCompressedMatchesUncompressed is the core differential pin:
// ForwardPacked, plain and pooled, of a folded conv equals its unfolded
// twin (Uncompressed) word for word, on banks repeating from 2 to K/4
// filters at sub-word to multi-word channel counts, with and without
// folded thresholds, serial and threaded.
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
		{"at-threshold", 8, 8, 128, 64, 3, 3, 16, 2, 2, 2},
		{"low-channel", 10, 10, 3, 64, 3, 3, 4, 2, 2, 2},
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
			if !cv.Folded() {
				t.Fatalf("%s: bank of %d filters repeating %d did not fold", tc.name, tc.k, tc.bases)
			}
			plain := cv.Uncompressed()
			s := cv.Shape
			wpp := bitpack.WordsFor(tc.k)
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

// FuzzCompressedConv is the differential fuzz harness: arbitrary
// geometries and banks repeating 1 to K/4 whole filters — so every bank
// of at least 4 filters folds — must produce output equal to the
// unfolded PressedConv word for word, packed and fused. The seed corpus
// pins an all-filters-identical bank, a wide one near the threshold and
// a two-filter bank below it.
func FuzzCompressedConv(f *testing.F) {
	// seed, h, w, c, k, bases (repeated filters: 1 + bases % (k/4)),
	// withThresholds.
	f.Add(uint64(1), uint8(8), uint8(8), uint8(64), uint8(32), uint8(0), true)  // all filters identical
	f.Add(uint64(2), uint8(8), uint8(8), uint8(255), uint8(16), uint8(3), true) // wide, 17 filters repeating 4
	f.Add(uint64(3), uint8(6), uint8(9), uint8(3), uint8(40), uint8(5), false)  // conv1.1-style low channel
	f.Add(uint64(4), uint8(9), uint8(7), uint8(100), uint8(33), uint8(2), true) // ragged, 34 filters repeating 3
	f.Add(uint64(5), uint8(5), uint8(5), uint8(64), uint8(1), uint8(0), false)  // 2 identical filters: K/F = 2 sweeps
	f.Fuzz(func(t *testing.T, seed uint64, hh, ww, cc, kk, bb uint8, withTh bool) {
		h := int(hh)%8 + 3
		w := int(ww)%8 + 3
		c := int(cc)%200 + 1
		k := int(kk)%72 + 1
		bases := 1 + int(bb)%max(k/4, 1)
		r := workload.NewRNG(seed)
		shape, err := sched.InferConv(h, w, c, k, 3, 3, 1, 1)
		if err != nil {
			t.Skip()
		}
		tier := feat().MaxWidth
		fl := workload.PM1Filter(r, k, 3, 3, c)
		dupFilter(fl, bases)
		cv, err := NewConv(shape, tier, fl)
		if err != nil {
			t.Skip()
		}
		if k >= 4 && !cv.Folded() {
			t.Fatalf("bank of %d filters repeating %d did not fold", k, bases)
		}
		if withTh {
			if err := cv.SetThresholds(randThresholds(r, k, cv.validLanes)); err != nil {
				t.Fatal(err)
			}
		}
		in := workload.PM1Tensor(r, h, w, c)
		packed := cv.NewInput()
		bitpack.PackTensorInto(in, packed)
		s := cv.Shape
		wpp := bitpack.WordsFor(k)
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
