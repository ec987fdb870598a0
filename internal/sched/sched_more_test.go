package sched

import (
	"strings"
	"testing"

	"bitflow/internal/kernels"
)

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
