package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// Codegen upgrades the hot-path discipline from AST guesswork to
// compiler-verified fact. It compiles internal/kernels and internal/core
// under `-gcflags='-m=2 -d=ssa/check_bce'`, maps every escape-analysis
// and bounds-check diagnostic onto the hot call graph, and fails on:
//
//   - any heap escape ("escapes to heap" / "moved to heap") inside a
//     function reachable from the hot roots (Network.Infer*, kernels,
//     //bitflow:hot) — an escape IS a per-call
//     allocation, so the existing //bitflow:alloc-ok hatch excuses it;
//   - any surviving bounds check ("Found IsInBounds" / "Found
//     IsSliceInBounds") inside a hot kernel — a function in
//     internal/kernels or annotated //bitflow:hot — excusable with
//     //bitflow:bce-ok <reason> on the line, or on the function
//     declaration to excuse a whole reference/tail implementation.
//
// Deliberate blind spots, chosen so the gate only fires on real hot-path
// regressions:
//
//   - escapes whose subject is a string literal (static data; panic
//     messages inlined from callees land on the caller's call line);
//   - escapes positioned inside a panic(...) argument or a call to a
//     panic* helper (failure path, mirrors hotalloc);
//   - "func literal escapes to heap" where the literal is an argument to
//     internal/exec dispatch or resilience.Safe — the one sanctioned
//     per-dispatch closure allocation;
//   - bounds checks outside kernels (core's cold setup loops may keep
//     their checks; only code marked hot pays the BCE discipline).
var Codegen = &Analyzer{
	Name: "codegen",
	Doc:  "compiler-verified hot paths: no heap escapes in the hot graph, no surviving bounds checks in kernels",
	Run:  runCodegen,
}

func runCodegen(p *Program) []Finding {
	diags, err := p.compilerDiags()
	if err != nil {
		return []Finding{{Analyzer: "codegen", File: "go-build", Message: err.Error()}}
	}
	if len(diags) == 0 {
		return nil
	}

	g, hot := p.graph(), p.hotFuncs()
	idx := p.fileIndex()
	var out []Finding
	bareDecl := map[token.Pos]bool{} // function-level bare bce-ok reported once
	for _, d := range diags {
		loc, ok := idx[d.File]
		if !ok {
			continue // diagnostic for a file outside the loaded program
		}
		fn := p.enclosingFunc(g, loc, d.Line)
		if !hot[fn] {
			continue
		}
		pos := p.linePos(loc.file, d.Line)

		switch d.Kind {
		case DiagEscape, DiagMoved:
			if strings.HasPrefix(d.Subject, `"`) {
				continue // static string data (often a panic message inlined into the call line)
			}
			if p.onPanicPath(loc, d.Line) {
				continue
			}
			if d.Subject == "func literal" && p.execDispatchLiteral(loc, d.Line) {
				continue
			}
			out = append(out, p.excusable("codegen", pos, "alloc-ok",
				"compiler-verified heap allocation on hot path: "+d.Subject+" "+d.Kind.String()+
					" in "+funcLabel(fn)+"; keep hot values on the stack or annotate //bitflow:alloc-ok <reason>")...)

		case DiagBounds, DiagSliceBounds:
			if !p.boundsGated(loc, fn) {
				continue
			}
			if decl := p.topLevelDecl(loc, d.Line); decl != nil {
				if dir := p.directiveFor(decl.Pos(), "bce-ok"); dir != nil {
					if dir.Reason != "" {
						continue // whole function excused (reference/tail implementations)
					}
					if !bareDecl[decl.Pos()] {
						bareDecl[decl.Pos()] = true
						out = append(out, p.finding("codegen", decl.Pos(),
							"/bitflow:bce-ok needs a justification string"))
					}
					continue
				}
			}
			out = append(out, p.excusable("codegen", pos, "bce-ok",
				"surviving bounds check (Found "+d.Kind.String()+") in hot kernel "+funcLabel(fn)+
					"; restructure the loop for bounds-check elimination or annotate //bitflow:bce-ok <reason>")...)
		}
	}
	return out
}

// boundsGated reports whether fn pays the bounds-check discipline: it
// lives in internal/kernels, or its top-level declaration (for literals,
// the enclosing one) is annotated //bitflow:hot.
func (p *Program) boundsGated(loc fileLoc, fn *funcNode) bool {
	if pathSuffix(fn.pkg.Path, "internal/kernels") {
		return true
	}
	decl := fn.decl
	if decl == nil && fn.lit != nil {
		decl = p.topLevelDecl(loc, p.Fset.Position(fn.lit.Pos()).Line)
	}
	return decl != nil && p.directiveFor(decl.Pos(), "hot") != nil
}

// funcLabel names a node for finding messages.
func funcLabel(n *funcNode) string {
	if n.obj != nil {
		if recv := n.recvTypeName(); recv != "" {
			return recv + "." + n.obj.Name()
		}
		return n.obj.Name()
	}
	return "func literal"
}

// fileLoc binds one parsed file to its package for position lookups.
type fileLoc struct {
	pkg  *Package
	file *ast.File
}

// fileIndex maps absolute cleaned file paths to their parsed files.
func (p *Program) fileIndex() map[string]fileLoc {
	idx := map[string]fileLoc{}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			tokFile := p.Fset.File(f.Pos())
			if tokFile == nil {
				continue
			}
			name := tokFile.Name()
			if abs, err := filepath.Abs(name); err == nil {
				name = abs
			}
			idx[filepath.Clean(name)] = fileLoc{pkg: pkg, file: f}
		}
	}
	return idx
}

// linePos returns a position on the given line of the file (column 1),
// for anchoring findings and directive lookups. Out-of-range lines fall
// back to the file start.
func (p *Program) linePos(f *ast.File, line int) token.Pos {
	tokFile := p.Fset.File(f.Pos())
	if tokFile == nil || line < 1 || line > tokFile.LineCount() {
		return f.Pos()
	}
	return tokFile.LineStart(line)
}

// spansLine reports whether node n covers the given source line.
// Containment checks are line-based: compiler positions produced by
// inlining can carry surprising columns, but the line always identifies
// the source construct.
func (p *Program) spansLine(n ast.Node, line int) (start int, covers bool) {
	s := p.Fset.Position(n.Pos()).Line
	e := p.Fset.Position(n.End()).Line
	return s, s <= line && line <= e
}

// enclosingFunc finds the innermost function node (declaration or
// literal) whose line span covers the diagnostic line.
func (p *Program) enclosingFunc(g *callGraph, loc fileLoc, line int) *funcNode {
	var best *funcNode
	bestSpan := 1 << 30
	consider := func(n ast.Node, fn *funcNode) {
		if fn == nil {
			return
		}
		s := p.Fset.Position(n.Pos()).Line
		e := p.Fset.Position(n.End()).Line
		if s <= line && line <= e && e-s < bestSpan {
			best, bestSpan = fn, e-s
		}
	}
	ast.Inspect(loc.file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				consider(x, g.declNode(loc.pkg, x))
			}
		case *ast.FuncLit:
			consider(x, g.byLit[x])
		}
		return true
	})
	return best
}

// topLevelDecl finds the top-level function declaration whose line span
// covers the diagnostic line (nil for positions outside any function).
func (p *Program) topLevelDecl(loc fileLoc, line int) *ast.FuncDecl {
	for _, decl := range loc.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if _, ok := p.spansLine(fd, line); ok {
			return fd
		}
	}
	return nil
}

// onPanicPath reports whether the line lies inside a call to the panic
// builtin or to a panic* helper — the sanctioned failure path whose
// allocations (message formatting) never run on a successful inference.
func (p *Program) onPanicPath(loc fileLoc, line int) bool {
	found := false
	ast.Inspect(loc.file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, covers := p.spansLine(call, line); !covers {
			return true
		}
		if isBuiltin(loc.pkg.Info, call, "panic") {
			found = true
			return false
		}
		if fn := calleeFunc(loc.pkg.Info, call); fn != nil && strings.HasPrefix(fn.Name(), "panic") {
			found = true
			return false
		}
		return true
	})
	return found
}

// execDispatchLiteral reports whether a func literal starting on the
// line is a direct argument to internal/exec dispatch (ParallelFor and
// friends) or resilience.Safe — the one closure allocation the serving
// design sanctions per dispatch.
func (p *Program) execDispatchLiteral(loc fileLoc, line int) bool {
	found := false
	ast.Inspect(loc.file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(loc.pkg.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkgPath := fn.Pkg().Path()
		if !pathSuffix(pkgPath, "internal/exec") && !pathSuffix(pkgPath, "internal/resilience") {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				if p.Fset.Position(lit.Pos()).Line == line {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
