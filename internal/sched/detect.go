// Package sched implements BitFlow's vector execution scheduler (paper
// §III-B, Fig. 4) as a shape inferer and a hardware detector. The
// paper's code generator picks a packing width per channel count; here
// every operator runs at the detected tier (MaxWidth.Tier) with
// WordsFor(C) words per channel vector, because the sweeps mask their
// own tails.
package sched

import (
	"fmt"
	"os"
	"runtime"
	"strconv"

	"bitflow/internal/kernels"
)

// Features describes what the hardware supports. As in the paper it
// comes from CPUID probing: the kernels package probes once at start-up
// for AVX-512 (F, BW, VPOPCNTDQ, ZMM state enabled) and AVX2, and the
// detector reports the widest tier found, whether scalar popcount is a
// single instruction on this architecture, and an optional cap on the
// widest tier, used by ablation benchmarks and tests to run the narrower
// kernels on a wider machine.
type Features struct {
	// Arch is runtime.GOARCH.
	Arch string
	// ISA is the widest kernel tier the CPU and this build execute:
	// W512 (AVX-512), W256 (AVX2) or W64 (pure Go, also -tags purego).
	ISA kernels.Width
	// MaxWidth is the widest kernel tier the operators may run: ISA,
	// unless capped lower. Every conv and dense runs at MaxWidth.Tier().
	MaxWidth kernels.Width
	// HWPopcount reports whether math/bits.OnesCount64 compiles to a
	// native popcount instruction on this architecture.
	HWPopcount bool
}

// MaxWidthEnv is the environment variable that caps the detected width:
// one of "64", "256", "512"; any other value is ignored. It lets
// benchmarks run as a machine without the wider tiers (paper: "AVX512 if
// available e.g. on Intel Xeon Phi, otherwise AVX256 e.g. Intel Core i7").
const MaxWidthEnv = "BITFLOW_MAX_WIDTH"

// Detect probes the current platform.
func Detect() Features {
	isa := kernels.W512.Tier()
	f := Features{
		Arch:       runtime.GOARCH,
		ISA:        isa,
		MaxWidth:   isa,
		HWPopcount: hwPopcount(runtime.GOARCH),
	}
	if v := os.Getenv(MaxWidthEnv); v != "" {
		if w, err := ParseWidth(v); err == nil && w < isa {
			f.MaxWidth = w
		}
	}
	return f
}

// hwPopcount reports whether OnesCount64 is a single instruction on arch.
func hwPopcount(arch string) bool {
	switch arch {
	case "amd64", "arm64", "ppc64", "ppc64le", "s390x":
		return true
	}
	return false
}

// ParseWidth converts "64"/"256"/"512" into a kernel tier.
func ParseWidth(s string) (kernels.Width, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("sched: bad width %q: %v", s, err)
	}
	switch n {
	case 64:
		return kernels.W64, nil
	case 256:
		return kernels.W256, nil
	case 512:
		return kernels.W512, nil
	}
	return 0, fmt.Errorf("sched: width %d not one of 64/256/512", n)
}

// WithMaxWidth returns a copy of f capped at w.
func (f Features) WithMaxWidth(w kernels.Width) Features {
	f.MaxWidth = w
	return f
}

// String renders the feature report.
func (f Features) String() string {
	return fmt.Sprintf("arch=%s isa=%s maxWidth=%s hwPopcount=%v", f.Arch, f.ISA, f.MaxWidth, f.HWPopcount)
}
