// Package analysis is bitflow-vet: a repo-native static-analysis suite
// for the engine invariants that neither the compiler nor `go vet`
// checks:
//
//   - all multi-core dispatch flows through internal/exec (no raw
//     goroutines in operator code) — rawgo;
//   - per-inference hot paths stay allocation-free (packed buffers are
//     pre-allocated at load/Ensure* time, the whole point of the
//     PressedConv/bgemm design) and never materialize a float tensor
//     (activations between layers exist only as packed bits) — hotalloc;
//   - every panic on a serving path is dominated by resilience.Safe so a
//     replica re-clones instead of the process dying — panicpath;
//   - the hot path is compiler-verified: no heap escapes in the hot
//     graph and no surviving bounds checks in kernels, straight from
//     `-gcflags='-m=2 -d=ssa/check_bce'` diagnostics — codegen;
//   - every function is reachable from a program: a main, an init, the
//     root package's API, an external interface, or a justified keep —
//     reach.
//
// Copies of typed atomics are go vet's copylocks check.
//
// Each analyzer walks the fully type-checked module (stdlib go/ast +
// go/types; packages are loaded via `go list -export`, so no external
// dependencies). TestModuleIsClean, which every `go test ./...` runs,
// holds the module at zero findings; cmd/bitflow-vet prints them.
//
// Intentional exceptions are annotated in the source, never configured
// out of the analyzer:
//
//	//bitflow:alloc-ok <justification>   (hotalloc, codegen escapes)
//	//bitflow:go-ok <justification>      (rawgo)
//	//bitflow:panic-ok <justification>   (panicpath)
//	//bitflow:bce-ok <justification>     (codegen bounds checks; on a line or a whole function)
//	//bitflow:keep <justification>       (reach root; on a declaration or a package clause)
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

// Finding is one rule violation at file:line:col.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
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

	// Module is the module path; its root package's API is a reach root.
	Module string

	// directives maps file name -> line -> parsed //bitflow: directive.
	directives map[string]map[int]*Directive

	// cg is the lazily built whole-program call graph every rule but
	// rawgo walks.
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
// whole-program by design: four of the five rules need a cross-package
// call graph, which per-package passes cannot express.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{RawGo, HotAlloc, PanicPath, Codegen, Reach}
}

// Run executes the given analyzers and returns their findings in a total
// order: position, then analyzer, then message.
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
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
	return funcOf(info, ast.Unparen(call.Fun))
}

// funcOf resolves an identifier or selector naming a function or method
// to its *types.Func, or nil for anything else.
func funcOf(info *types.Info, expr ast.Expr) *types.Func {
	switch x := expr.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}
