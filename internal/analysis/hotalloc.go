package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc keeps the per-inference call graph allocation-free. The
// engine's speed rests on packed buffers being allocated once — at model
// load or inside the grow-only Ensure* helpers — and reused for every
// inference; a make/append/map/boxing allocation that sneaks into the
// path rooted at Network.Infer* or the kernels inner loops silently
// re-introduces the per-call GC traffic the bit-packed design exists to
// avoid. The same graph may not materialize a float tensor either
// (internal/tensor constructors or literals): between layers, including
// through a fused conv → threshold → binarize → pool, activations exist
// only as packed bits.
//
// Roots: graph.Network methods named Infer*, every function in
// internal/kernels, and any function annotated //bitflow:hot.
// Boundaries (visited but not descended into): functions named Ensure*
// or Clone — the sanctioned allocation points. Allocations that only
// execute while building a panic argument are ignored (failure path),
// and //bitflow:alloc-ok <reason> excuses a deliberate one.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocations and float tensors inside the per-inference call graph (Network.Infer*, kernels, //bitflow:hot)",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Program) []Finding {
	g := p.graph()
	var roots []*funcNode
	for _, n := range g.nodes {
		if hotRoot(p, n) {
			roots = append(roots, n)
		}
	}
	boundary := func(n *funcNode) bool {
		name := n.name()
		return strings.HasPrefix(name, "Ensure") || name == "Clone"
	}
	reached := g.reach(roots, reachOpts{boundary: boundary})

	var out []Finding
	for _, n := range g.nodes {
		if !reached[n] || boundary(n) {
			continue
		}
		out = append(out, scanAllocs(p, n)...)
	}
	return out
}

// hotRoot reports whether the node anchors the per-inference graph.
func hotRoot(p *Program, n *funcNode) bool {
	if pathSuffix(n.pkg.Path, "internal/kernels") && n.decl != nil {
		return true
	}
	if pathSuffix(n.pkg.Path, "internal/graph") &&
		n.recvTypeName() == "Network" && strings.HasPrefix(n.name(), "Infer") {
		return true
	}
	if n.decl != nil && p.directiveFor(n.decl.Pos(), "hot") != nil {
		return true
	}
	return false
}

// scanAllocs reports allocation and float-tensor sites lexically inside
// one node's body (nested literals are their own nodes and are scanned
// when reached).
func scanAllocs(p *Program, n *funcNode) []Finding {
	info := n.pkg.Info
	var out []Finding
	flag := func(pos_ ast.Node, what string) {
		out = append(out, p.excusable("hotalloc", pos_.Pos(), "alloc-ok",
			what+" on per-inference hot path; pre-allocate at load/Ensure* time or annotate //bitflow:alloc-ok <reason>")...)
	}
	ast.Inspect(n.body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// Failure path: allocations feeding a panic argument never
			// run on a successful inference.
			if isBuiltin(info, x, "panic") {
				return false
			}
			switch {
			case isBuiltin(info, x, "make"):
				flag(x, "make")
			case isBuiltin(info, x, "new"):
				flag(x, "new")
			case isBuiltin(info, x, "append"):
				flag(x, "append (may grow)")
			case isTensorConstructor(info, x):
				flag(x, "float tensor construction")
			default:
				if conv, to := allocConversion(info, x); conv {
					flag(x, to+" conversion (allocates)")
				}
			}
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if isTensorNamed(t) {
				flag(x, types.TypeString(t, types.RelativeTo(n.pkg.Types))+" literal (float tensor)")
			} else if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					flag(x, "slice literal")
				case *types.Map:
					flag(x, "map literal")
				}
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					flag(x, "&composite literal (escapes)")
					return false
				}
			}
		}
		return true
	})
	return out
}

// allocConversion reports conversions that allocate: string<->[]byte /
// []rune, and explicit conversions to interface types (boxing).
func allocConversion(info *types.Info, call *ast.CallExpr) (bool, string) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false, ""
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		// T -> []E allocates when the source is a string (or another
		// non-slice); slice->slice conversions of identical layout don't.
		argT := info.Types[call.Args[0]].Type
		if argT != nil {
			if b, ok := argT.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return true, "string-to-slice"
			}
		}
	case *types.Interface:
		return true, "interface"
	}
	return false, ""
}

// isTensorConstructor reports calls to an internal/tensor New*
// constructor, which materialize a float tensor.
func isTensorConstructor(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil &&
		pathSuffix(fn.Pkg().Path(), "internal/tensor") && strings.HasPrefix(fn.Name(), "New")
}

// isTensorNamed reports whether t is a named type declared in
// internal/tensor (Tensor, Matrix, Filter).
func isTensorNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && pathSuffix(obj.Pkg().Path(), "internal/tensor")
}
