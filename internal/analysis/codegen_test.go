package analysis

import (
	"strings"
	"testing"
)

func TestCodegenFixture(t *testing.T) {
	findings := checkFixture(t, "fixture/internal/kernels", "testdata/codegen")
	// Both bare hatches — the line-level and the function-level
	// //bitflow:bce-ok — must surface as bad annotations, not be
	// silently honored.
	bare := 0
	for _, f := range findings {
		if strings.Contains(f.Message, "bce-ok needs a justification") {
			bare++
		}
	}
	if bare != 2 {
		t.Errorf("got %d bce-ok needs-a-justification findings, want 2 (line-level and function-level)", bare)
	}
}

// TestHotLoopsCompilerVerified pins the kernel discipline at its source:
// compiling internal/kernels under the gate's gcflags must yield zero
// codegen findings — every surviving bounds check is explicitly
// annotated, and the inner loops are proven check-free by the compiler,
// not by convention. The diagnostics stream itself must be non-empty
// (the annotated preamble pins survive as IsSliceInBounds), proving the
// compile actually ran rather than silently producing nothing.
func TestHotLoopsCompilerVerified(t *testing.T) {
	prog, err := Load(moduleRoot, "./internal/kernels")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := prog.compilerDiags()
	if err != nil {
		t.Fatalf("compilerDiags: %v", err)
	}
	bounds := 0
	for _, d := range diags {
		if d.Kind == DiagBounds || d.Kind == DiagSliceBounds {
			bounds++
		}
	}
	if bounds == 0 {
		t.Fatal("no bounds-check diagnostics captured; expected the annotated preamble pins — did the diagnostic compile run?")
	}
	for _, f := range Run(prog, []*Analyzer{Codegen}) {
		t.Errorf("unexpected codegen finding: %s", f)
	}
}
