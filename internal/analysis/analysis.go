// Package analysis is bitflow-vet: a repo-native static-analysis suite
// that turns the engine's written invariants into machine-checked ones.
//
// PRs 1–3 made correctness depend on three conventions the compiler
// cannot see:
//
//   - all multi-core dispatch flows through internal/exec (no raw
//     goroutines in operator code) — rawgo, threadsint;
//   - per-inference hot paths stay allocation-free (packed buffers are
//     pre-allocated at load/Ensure* time, the whole point of the
//     PressedConv/bgemm design) and never materialize a float tensor
//     (activations between layers exist only as packed bits) — hotalloc;
//   - every panic on a serving path is dominated by resilience.Safe so a
//     replica re-clones instead of the process dying — panicpath;
//   - the adaptive control loop stays mechanism-free and actuates only
//     through the exported resize/retune APIs — actuate;
//   - the hot path is compiler-verified: no heap escapes in the hot
//     graph and no surviving bounds checks in kernels, straight from
//     `-gcflags='-m=2 -d=ssa/check_bce'` diagnostics — codegen;
//   - a field touched through sync/atomic anywhere is touched atomically
//     everywhere, and atomic-bearing values are never copied — atomics;
//   - the whole-program mutex-acquisition graph (reload lock, gates,
//     batcher, control ledger) stays acyclic — lockorder.
//
// Each analyzer walks the fully type-checked module (stdlib go/ast +
// go/types; packages are loaded via `go list -export`, so no external
// dependencies) and reports findings that cmd/bitflow-vet turns into a
// non-zero exit for verify.sh / CI.
//
// Intentional exceptions are annotated in the source, never configured
// out of the analyzer:
//
//	//bitflow:alloc-ok <justification>   (hotalloc, codegen escapes)
//	//bitflow:go-ok <justification>      (rawgo)
//	//bitflow:panic-ok <justification>   (panicpath)
//	//bitflow:actuate-ok <justification> (actuate)
//	//bitflow:bce-ok <justification>     (codegen bounds checks; on a line or a whole function)
//	//bitflow:atomic-ok <justification>  (atomics)
//	//bitflow:lock-ok <justification>    (lockorder)
//	//bitflow:hot                        (extra hotalloc/codegen root)
//
// A marker with an empty justification is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation, addressable for both humans
// (file:line:col) and machines (-json).
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the whole-module view the analyzers run over: every
// non-test package, parsed and type-checked against real export data, so
// cross-package analyses (call graphs) see the same types the compiler
// does.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// Dir is the absolute directory Load resolved patterns in — the
	// working directory codegen's `go build` driver compiles from.
	Dir string

	// directives maps file name -> line -> parsed //bitflow: directive.
	directives map[string]map[int]*Directive

	// cg is the lazily built whole-program call graph shared by hotalloc
	// and panicpath.
	cg *callGraph

	// diagSource produces the compiler diagnostics codegen consumes.
	// Load leaves it nil (the go-build driver); LoadFixture installs the
	// //codegen: marker synthesizer. The result is cached after one run.
	diagSource func(*Program) ([]CompilerDiag, error)
	diags      []CompilerDiag
	diagsErr   error
	diagsDone  bool
}

// Analyzer is one named rule over a Program. Unlike go/analysis this is
// whole-program by design: two of the four rules need a cross-package
// call graph, which per-package passes cannot express.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{RawGo, ThreadsInt, HotAlloc, PanicPath, Actuate, Codegen, Atomics, LockOrder}
}

// Run executes the given analyzers and returns their findings sorted by
// position then analyzer name.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		out = append(out, a.Run(prog)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// NumFiles reports how many source files the program holds — the
// denominator of the verify.sh summary line.
func (p *Program) NumFiles() int {
	n := 0
	for _, pkg := range p.Pkgs {
		n += len(pkg.Files)
	}
	return n
}

// finding builds a Finding at pos.
func (p *Program) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	position := p.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// pathSuffix reports whether the package import path is exactly suffix
// or ends in "/"+suffix — how analyzers recognize the repo's package
// roles without hard-coding the module name (fixtures use fake module
// paths).
func pathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isBuiltin reports whether the call expression invokes the named
// builtin (make, append, panic, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function, method, or qualified import), or nil for builtins,
// conversions, and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
