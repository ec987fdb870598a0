package sched

import (
	"strings"
	"testing"
	"testing/quick"

	"bitflow/internal/bitpack"
	"bitflow/internal/kernels"
)

func TestPlanString(t *testing.T) {
	p := Select(100, allWidths())
	s := p.String()
	for _, want := range []string{"C=100", "scalar64", "words=2", "pad=28"} {
		if !strings.Contains(s, want) {
			t.Errorf("Plan.String %q missing %q", s, want)
		}
	}
}

func TestFeaturesString(t *testing.T) {
	f := Features{Arch: "amd64", ISA: kernels.W512, MaxWidth: kernels.W256, HWPopcount: true}
	s := f.String()
	if !strings.Contains(s, "amd64") || !strings.Contains(s, "isa=avx512") || !strings.Contains(s, "maxWidth=avx256") {
		t.Errorf("Features.String %q", s)
	}
}

func TestHWPopcountArchMatrix(t *testing.T) {
	for arch, want := range map[string]bool{
		"amd64": true, "arm64": true, "ppc64le": true, "s390x": true,
		"386": false, "wasm": false, "riscv64": false,
	} {
		if got := hwPopcount(arch); got != want {
			t.Errorf("hwPopcount(%s) = %v want %v", arch, got, want)
		}
	}
}

// TestSelectPaddedInvariants: padded plans always use the widest cap
// and never shrink below the true word requirement.
func TestSelectPaddedInvariants(t *testing.T) {
	f := func(cc uint16, capIdx uint8) bool {
		c := int(cc)%4096 + 1
		feat := allWidths().WithMaxWidth(kernels.Widths[int(capIdx)%len(kernels.Widths)])
		p := SelectPadded(c, feat)
		if p.Width != feat.MaxWidth {
			return false
		}
		if p.Words < bitpack.WordsFor(c) {
			return false
		}
		return p.Words%p.Width.Words() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPaddedNeverNarrowerThanRule: for channel counts where the rules
// already pick the widest tier, SelectPadded agrees exactly.
func TestPaddedAgreesAtAlignedCounts(t *testing.T) {
	feat := allWidths()
	for _, c := range []int{512, 1024, 25088} {
		rule := Select(c, feat)
		padded := SelectPadded(c, feat)
		if rule.Width != padded.Width || rule.Words != padded.Words {
			t.Errorf("C=%d: rule %v vs padded %v", c, rule, padded)
		}
	}
}

func TestSelectPaddedPanicsOnBadC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	SelectPadded(-1, allWidths())
}

func TestConvShapeRoundtripWithWorkloadConfigs(t *testing.T) {
	// Table IV convs must infer to their documented output shapes.
	cases := []struct{ h, w, c, k, outH int }{
		{112, 112, 64, 128, 112},
		{56, 56, 128, 256, 56},
		{28, 28, 256, 512, 28},
		{14, 14, 512, 512, 14},
	}
	for _, tc := range cases {
		s, err := InferConv(tc.h, tc.w, tc.c, tc.k, 3, 3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.OutH != tc.outH || s.OutC != tc.k {
			t.Errorf("%dx%dx%d: out %dx%dx%d", tc.h, tc.w, tc.c, s.OutH, s.OutW, s.OutC)
		}
	}
}
