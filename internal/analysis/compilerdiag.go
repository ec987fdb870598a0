package analysis

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// This file is the bridge between bitflow-vet and the Go compiler's own
// diagnostics. The codegen analyzer does not guess what the optimizer
// did — it asks: `go build -gcflags='-m=2 -d=ssa/check_bce'` makes the
// compiler print, per position, every value that escapes to the heap and
// every bounds check the BCE prover could not eliminate. We parse that
// stream into CompilerDiag values and map them back onto the type-checked
// AST the analyzers already hold.
//
// Two facts make this reliable enough to gate CI on:
//
//   - the build cache REPLAYS compiler output on cache hits, so a warm
//     `go build` still prints the full diagnostic stream (no -a needed);
//   - diagnostics carry file:line:col positions into the pre-inlining
//     source, so they land inside the function that wrote the code even
//     when the escape itself was introduced by inlining a callee.

// DiagKind classifies one compiler diagnostic.
type DiagKind int

const (
	// DiagEscape is "<expr> escapes to heap" — a value the compiler
	// proved must be heap-allocated.
	DiagEscape DiagKind = iota
	// DiagMoved is "moved to heap: <name>" — a declared local the
	// compiler relocated to the heap (an allocation per execution of the
	// declaration).
	DiagMoved
	// DiagBounds is "Found IsInBounds" — an index expression whose
	// bounds check the BCE prover could not eliminate.
	DiagBounds
	// DiagSliceBounds is "Found IsSliceInBounds" — a slice expression
	// with a surviving bounds check.
	DiagSliceBounds
)

func (k DiagKind) String() string {
	switch k {
	case DiagEscape:
		return "escapes to heap"
	case DiagMoved:
		return "moved to heap"
	case DiagBounds:
		return "IsInBounds"
	case DiagSliceBounds:
		return "IsSliceInBounds"
	}
	return "unknown"
}

// CompilerDiag is one parsed diagnostic, positioned in a source file.
type CompilerDiag struct {
	File    string // absolute, cleaned path
	Line    int
	Col     int
	Kind    DiagKind
	Subject string // escaping expression / moved variable name; "" for bounds checks
}

// diagLine matches `file:line:col: message`. The file part is non-greedy
// so a message that itself contains ":<digits>:<digits>:" cannot steal
// position digits from the real location — the first well-formed
// position wins, which is always the one the compiler printed.
var diagLine = regexp.MustCompile(`^(.+?):([0-9]+):([0-9]+): (.*)$`)

// ParseCompilerDiags extracts escape-analysis and check_bce diagnostics
// from raw `go build` output. Lines that are not diagnostics (package
// headers, flow: traces, inline decisions, build noise) are ignored;
// relative paths are resolved against baseDir. The parser must tolerate
// arbitrary input without panicking — it is fuzzed.
func ParseCompilerDiags(output []byte, baseDir string) []CompilerDiag {
	var out []CompilerDiag
	seen := map[CompilerDiag]bool{}
	for _, raw := range bytes.Split(output, []byte("\n")) {
		d, ok := parseDiagLine(string(raw), baseDir)
		if !ok || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// parseDiagLine parses a single output line into a CompilerDiag.
func parseDiagLine(line, baseDir string) (CompilerDiag, bool) {
	m := diagLine.FindStringSubmatch(line)
	if m == nil {
		return CompilerDiag{}, false
	}
	file, lineStr, colStr, msg := m[1], m[2], m[3], m[4]
	var d CompilerDiag
	switch {
	case msg == "Found IsInBounds":
		d.Kind = DiagBounds
	case msg == "Found IsSliceInBounds":
		d.Kind = DiagSliceBounds
	case strings.HasPrefix(msg, "moved to heap: "):
		d.Kind = DiagMoved
		d.Subject = strings.TrimPrefix(msg, "moved to heap: ")
	case strings.HasSuffix(msg, " escapes to heap"):
		d.Kind = DiagEscape
		d.Subject = strings.TrimSuffix(msg, " escapes to heap")
	case strings.HasSuffix(msg, " escapes to heap:"):
		// -m=2 variant that introduces an indented flow: trace.
		d.Kind = DiagEscape
		d.Subject = strings.TrimSuffix(msg, " escapes to heap:")
	default:
		return CompilerDiag{}, false
	}
	ln, err := strconv.Atoi(lineStr)
	if err != nil || ln <= 0 {
		return CompilerDiag{}, false
	}
	col, err := strconv.Atoi(colStr)
	if err != nil || col <= 0 {
		return CompilerDiag{}, false
	}
	d.Line, d.Col = ln, col
	if !filepath.IsAbs(file) {
		file = filepath.Join(baseDir, file)
	}
	d.File = filepath.Clean(file)
	return d, true
}

// codegenGcflags is the exact flag set the codegen gate compiles under.
const codegenGcflags = "-m=2 -d=ssa/check_bce"

// goBuildDiagSource compiles the program's internal/kernels and
// internal/core packages with diagnostics on and parses the result. It
// is the default diagnostics source installed by Load; LoadFixture
// replaces it with a marker-driven synthesizer so fixture tests never
// shell out.
func goBuildDiagSource(p *Program) ([]CompilerDiag, error) {
	var paths []string
	for _, pkg := range p.Pkgs {
		if pathSuffix(pkg.Path, "internal/kernels") || pathSuffix(pkg.Path, "internal/core") {
			paths = append(paths, pkg.Path)
		}
	}
	if len(paths) == 0 {
		return nil, nil
	}
	args := append([]string{"build", "-gcflags=" + codegenGcflags}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = p.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=%q: %v\n%s", codegenGcflags, err, out)
	}
	return ParseCompilerDiags(out, p.Dir), nil
}

// compilerDiags returns the program's compiler diagnostics, running the
// configured source once and caching the result.
func (p *Program) compilerDiags() ([]CompilerDiag, error) {
	if !p.diagsDone {
		p.diagsDone = true
		src := p.diagSource
		if src == nil {
			src = goBuildDiagSource
		}
		p.diags, p.diagsErr = src(p)
	}
	return p.diags, p.diagsErr
}
