package sched

import (
	"testing"
	"testing/quick"

	"bitflow/internal/bitpack"
	"bitflow/internal/kernels"
)

func allWidths() Features {
	return Features{Arch: "test", MaxWidth: kernels.W512, HWPopcount: true}
}

func TestSelectPaperRules(t *testing.T) {
	// The VGG ladder of paper Fig. 6 / §IV: conv1.1 C=3 pads, conv2.1
	// C=64 scalar, conv3.1 C=128 SSE, conv4.1 C=256 AVX256, conv5.1
	// C=512 AVX512.
	feat := allWidths()
	cases := []struct {
		c     int
		width kernels.Width
		words int
	}{
		{3, kernels.W64, 1},
		{64, kernels.W64, 1},
		{128, kernels.W128, 2},
		{256, kernels.W256, 4},
		{512, kernels.W512, 8},
		{1024, kernels.W512, 16},
		{384, kernels.W128, 6},  // 384 = 3·128: divisible by 128, not 256
		{768, kernels.W256, 12}, // 768 = 3·256
		{96, kernels.W64, 2},    // multiple of 32 only → scalar, 2 words
		{100, kernels.W64, 2},   // not a multiple of 64 → pad to 128 lanes
	}
	for _, tc := range cases {
		p := Select(tc.c, feat)
		if p.Width != tc.width || p.Words != tc.words {
			t.Errorf("Select(%d) = %v, want width %v words %d", tc.c, p, tc.width, tc.words)
		}
		if p.PaddedC != p.Words*64 {
			t.Errorf("Select(%d): PaddedC %d != Words*64", tc.c, p.PaddedC)
		}
	}
}

func TestSelectRespectsMaxWidth(t *testing.T) {
	// "AVX512 if available e.g. on Intel Xeon Phi, otherwise AVX256
	// e.g. Intel Core i7" — C=512 on a 256-capped machine picks W256.
	feat := allWidths().WithMaxWidth(kernels.W256)
	if p := Select(512, feat); p.Width != kernels.W256 {
		t.Errorf("capped Select(512) picked %v", p.Width)
	}
	feat = allWidths().WithMaxWidth(kernels.W64)
	if p := Select(512, feat); p.Width != kernels.W64 {
		t.Errorf("scalar-capped Select(512) picked %v", p.Width)
	}
}

// TestSelectInvariantsQuick checks the scheduler's two invariants from
// DESIGN.md: the chosen width always divides the word count, and no
// wider admissible width exists.
func TestSelectInvariantsQuick(t *testing.T) {
	f := func(cc uint16, cap uint8) bool {
		c := int(cc)%4096 + 1
		feat := allWidths().WithMaxWidth(kernels.Widths[int(cap)%len(kernels.Widths)])
		p := Select(c, feat)
		if p.Words < bitpack.WordsFor(c) {
			return false
		}
		if !p.Width.Divides(p.Words) {
			return false
		}
		if p.Width > feat.MaxWidth {
			return false
		}
		// Maximality: any wider admissible tier would contradict the
		// paper's "optimal computing kernel" selection.
		for _, w := range kernels.Widths {
			if w <= p.Width || w > feat.MaxWidth {
				continue
			}
			if c%w.Bits() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectPadded(t *testing.T) {
	feat := allWidths()
	p := SelectPadded(100, feat)
	if p.Width != kernels.W512 {
		t.Errorf("SelectPadded width %v", p.Width)
	}
	if p.Words != 8 {
		t.Errorf("SelectPadded words %d want 8", p.Words)
	}
	if p.PadLanes() != 412 {
		t.Errorf("PadLanes %d want 412", p.PadLanes())
	}
}

func TestSelectPanicsOnBadC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Select(0) did not panic")
		}
	}()
	Select(0, allWidths())
}

func TestInferConv(t *testing.T) {
	s, err := InferConv(112, 112, 64, 128, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.OutH != 112 || s.OutW != 112 || s.OutC != 128 {
		t.Errorf("conv2.1 inferred %dx%dx%d", s.OutH, s.OutW, s.OutC)
	}
	// Stride 2, no pad.
	s, err = InferConv(8, 8, 16, 4, 2, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.OutH != 4 || s.OutW != 4 {
		t.Errorf("strided conv inferred %dx%d", s.OutH, s.OutW)
	}
	for name, args := range map[string][8]int{
		"zero input":   {0, 5, 1, 1, 1, 1, 1, 0},
		"zero K":       {5, 5, 1, 0, 1, 1, 1, 0},
		"zero window":  {5, 5, 1, 1, 0, 1, 1, 0},
		"zero stride":  {5, 5, 1, 1, 1, 1, 0, 0},
		"negative pad": {5, 5, 1, 1, 1, 1, 1, -1},
		"window large": {2, 2, 1, 1, 5, 5, 1, 0},
	} {
		if _, err := InferConv(args[0], args[1], args[2], args[3], args[4], args[5], args[6], args[7]); err == nil {
			t.Errorf("InferConv %s: expected error", name)
		}
	}
}

func TestInferPool(t *testing.T) {
	s, err := InferPool(28, 28, 512, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.OutH != 14 || s.OutW != 14 || s.OutC != 512 {
		t.Errorf("pool4 inferred %dx%dx%d", s.OutH, s.OutW, s.OutC)
	}
	if _, err := InferPool(1, 1, 1, 2, 2, 2); err == nil {
		t.Error("oversized pool window: expected error")
	}
	if _, err := InferPool(4, 4, 0, 2, 2, 2); err == nil {
		t.Error("zero channels: expected error")
	}
}

func TestInferFC(t *testing.T) {
	s, err := InferFC(25088, 4096)
	if err != nil || s.N != 25088 || s.K != 4096 {
		t.Errorf("fc6 inferred %+v err %v", s, err)
	}
	if _, err := InferFC(0, 5); err == nil {
		t.Error("zero N: expected error")
	}
}

func TestParseWidth(t *testing.T) {
	for s, w := range map[string]kernels.Width{"64": kernels.W64, "128": kernels.W128, "256": kernels.W256, "512": kernels.W512} {
		got, err := ParseWidth(s)
		if err != nil || got != w {
			t.Errorf("ParseWidth(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "banana", "96", "1024"} {
		if _, err := ParseWidth(s); err == nil {
			t.Errorf("ParseWidth(%q): expected error", s)
		}
	}
}

func TestDetectEnvOverride(t *testing.T) {
	// The environment variable is a cap on what the probe found, never a
	// way to ask for instructions the CPU lacks.
	isa := kernels.W512.Tier()
	for env, want := range map[string]kernels.Width{
		"64": kernels.W64, "128": kernels.W128, "256": kernels.W256, "512": kernels.W512, "garbage": isa,
	} {
		t.Setenv(MaxWidthEnv, env)
		want = min(want, isa)
		if f := Detect(); f.MaxWidth != want || f.ISA != isa {
			t.Errorf("%s=%s: MaxWidth %v ISA %v, want %v and %v", MaxWidthEnv, env, f.MaxWidth, f.ISA, want, isa)
		}
	}
}

// TestDetectReportsAnExecutableTier pins the detector to the kernels'
// own probe: without a cap, MaxWidth is the widest tier this CPU and
// build execute, and every plan's sweep tier is one the kernels run as
// asked — which is how BITFLOW_MAX_WIDTH=256|64 and WithMaxWidth reach
// the AVX2 and pure-Go kernels on an AVX-512 host.
func TestDetectReportsAnExecutableTier(t *testing.T) {
	t.Setenv(MaxWidthEnv, "")
	f := Detect()
	if f.MaxWidth != f.ISA || f.ISA.Tier() != f.ISA {
		t.Fatalf("Detect() = %v: MaxWidth must equal the executable ISA tier", f)
	}
	for _, w := range kernels.Widths {
		p := Select(512, f.WithMaxWidth(w))
		if want := min(w, f.ISA).Tier(); p.Tier != want {
			t.Errorf("cap %v on %v: plan tier %v, want %v", w, f.ISA, p.Tier, want)
		}
		if p.Tier.Tier() != p.Tier {
			t.Errorf("cap %v: plan tier %v is not executable here", w, p.Tier)
		}
	}
}

// TestKernelTable pins the operator→kernel mapping of paper Fig. 6 for
// VGG's channel counts.
func TestKernelTable(t *testing.T) {
	wantWidths := []kernels.Width{kernels.W64, kernels.W64, kernels.W128, kernels.W256, kernels.W512}
	for i, c := range []int{3, 64, 128, 256, 512} {
		if p := Select(c, allWidths()); p.Width != wantWidths[i] {
			t.Errorf("C=%d width %v want %v", c, p.Width, wantWidths[i])
		}
	}
}
