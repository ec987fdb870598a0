package sched

import (
	"fmt"

	"bitflow/internal/bitpack"
	"bitflow/internal/kernels"
)

// Plan is the code generator's output for one channel (or neuron) count:
// which kernel tier to run and how many words each packed channel vector
// occupies after any zero padding.
type Plan struct {
	// C is the true channel count the plan was built for.
	C int
	// Width is the packing width the §III-B rules selected: the widest
	// available one whose bit count divides C.
	Width kernels.Width
	// Tier is the kernel tier the operator's sweeps run at: the widest
	// the machine executes within feat.MaxWidth. It does not depend on C —
	// a sweep runs along the whole gathered window and masks its tail.
	Tier kernels.Width
	// Words is the packed channel vector length in 64-bit words,
	// guaranteed to be a multiple of Width.Words().
	Words int
	// PaddedC is Words*64, the lane count including zero padding.
	PaddedC int
}

// Select implements the paper's kernel-selection rules (§III-B):
//
//  1. channel dimension multiple of 512 → pack into 512-bit units (W512);
//  2. multiple of 256 → W256;
//  3. multiple of 128 → W128 (SSE);
//  4. multiple of 32 → plain intrinsic bitwise instructions (our scalar
//     64-bit kernel); otherwise pad extra zeros to the channel dimension.
//
// The widest admissible tier never exceeds feat.MaxWidth, mirroring
// "AVX512 if available … otherwise AVX256".
func Select(c int, feat Features) Plan {
	if c <= 0 {
		panic(fmt.Sprintf("sched: Select with c=%d", c))
	}
	for _, w := range kernels.Widths {
		if w > feat.MaxWidth {
			continue
		}
		if c%w.Bits() == 0 {
			return planFor(c, w, feat)
		}
	}
	// Rule 4 fallback: pad the channel dimension with zeros up to the
	// next word boundary.
	return planFor(c, kernels.W64, feat)
}

// SelectPadded is an extension of the paper's rules used by the ablation
// benchmarks: instead of falling back to the scalar kernel when no tier's
// bit count divides C, it pads the packed vector up to the next multiple
// of the widest available tier. This trades wasted XOR lanes for wider
// steps; the ablation bench quantifies when that wins.
func SelectPadded(c int, feat Features) Plan {
	if c <= 0 {
		panic(fmt.Sprintf("sched: SelectPadded with c=%d", c))
	}
	return planFor(c, feat.MaxWidth, feat)
}

func planFor(c int, w kernels.Width, feat Features) Plan {
	words := bitpack.WordsFor(c)
	// Round the word count up to a multiple of the tier's step. For the
	// rule-based tiers this is a no-op (c is a multiple of w.Bits());
	// for the scalar fallback it already is a single-word granularity.
	step := w.Words()
	words = (words + step - 1) / step * step
	return Plan{C: c, Width: w, Tier: feat.MaxWidth.Tier(), Words: words, PaddedC: words * bitpack.WordBits}
}

// PadLanes returns the number of zero lanes the plan appends beyond C.
func (p Plan) PadLanes() int { return p.PaddedC - p.C }

// String renders the plan as the Fig. 6 mapping does ("channel 256 →
// AVX256 kernel").
func (p Plan) String() string {
	return fmt.Sprintf("C=%d → %s (words=%d, pad=%d lanes)", p.C, p.Width, p.Words, p.PadLanes())
}

// KernelTable returns the operator→kernel mapping of paper Fig. 6 for a
// set of channel counts, e.g. VGG's {3, 64, 128, 256, 512}.
func KernelTable(channels []int, feat Features) []Plan {
	plans := make([]Plan, 0, len(channels))
	for _, c := range channels {
		plans = append(plans, Select(c, feat))
	}
	return plans
}
