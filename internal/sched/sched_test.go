package sched

import (
	"testing"

	"bitflow/internal/kernels"
)

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
	for s, w := range map[string]kernels.Width{"64": kernels.W64, "256": kernels.W256, "512": kernels.W512} {
		got, err := ParseWidth(s)
		if err != nil || got != w {
			t.Errorf("ParseWidth(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "banana", "96", "128", "1024"} {
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
		"64": kernels.W64, "128": isa, "256": kernels.W256, "512": kernels.W512, "garbage": isa,
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
// build execute, and every cap's tier is one the kernels run as asked —
// which is how BITFLOW_MAX_WIDTH=256|64 and WithMaxWidth reach
// the AVX2 and pure-Go kernels on an AVX-512 host.
func TestDetectReportsAnExecutableTier(t *testing.T) {
	t.Setenv(MaxWidthEnv, "")
	f := Detect()
	if f.MaxWidth != f.ISA || f.ISA.Tier() != f.ISA {
		t.Fatalf("Detect() = %v: MaxWidth must equal the executable ISA tier", f)
	}
	for _, w := range []kernels.Width{kernels.W512, kernels.W256, kernels.W64} {
		tier := f.WithMaxWidth(w).MaxWidth.Tier()
		if want := min(w, f.ISA).Tier(); tier != want {
			t.Errorf("cap %v on %v: tier %v, want %v", w, f.ISA, tier, want)
		}
		if tier.Tier() != tier {
			t.Errorf("cap %v: tier %v is not executable here", w, tier)
		}
	}
}
