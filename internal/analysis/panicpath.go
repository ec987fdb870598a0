package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PanicPath enforces the crash-containment contract: a panic that a
// request can reach must be caught by resilience.Safe so the replica is
// re-cloned instead of the process dying.
//
// Zone roots (internal/serve, internal/registry): every function with an
// http.ResponseWriter parameter (an HTTP handler), every exported
// registry.Model method (the swap protocol runs under SIGHUP with no
// recovering caller), and
// the target of every go statement in the zone (a worker goroutine's
// panic kills the process). From those roots the call graph is walked,
// pruning edges
// guarded by resilience.Safe and call sites annotated
// //bitflow:panic-ok <reason> (the annotation asserts the call cannot
// panic, e.g. because its input was validated just above). Any lexical
// panic left reachable is a finding unless the panic itself carries the
// annotation.
//
// internal/kernels additionally may only panic inside the sanctioned
// size-mismatch helpers (functions whose names start with "panic"), so
// argument checking stays uniform and greppable.
var PanicPath = &Analyzer{
	Name: "panicpath",
	Doc:  "panics reachable from serve/registry entry points without a resilience.Safe guard; unsanctioned kernels panics",
	Run:  runPanicPath,
}

func runPanicPath(p *Program) []Finding {
	out := panicZone(p)
	out = append(out, kernelsPanics(p)...)
	return out
}

// panicZone checks serve/registry reachability.
func panicZone(p *Program) []Finding {
	g := p.graph()
	inZone := func(pkg *Package) bool {
		return pathSuffix(pkg.Path, "internal/serve") ||
			pathSuffix(pkg.Path, "internal/registry")
	}

	var roots []*funcNode
	for _, n := range g.nodes {
		if !inZone(n.pkg) {
			continue
		}
		if n.decl != nil && (handlerFunc(n) || exportedRegistryMethod(n)) {
			roots = append(roots, n)
		}
	}
	// Goroutine targets: a panic inside `go f()` has no caller to
	// recover it.
	for _, n := range g.nodes {
		if !inZone(n.pkg) {
			continue
		}
		roots = append(roots, goTargets(g, n)...)
	}

	var out []Finding
	skip := func(e edge) bool {
		if e.guarded {
			return true
		}
		ok, bare := p.allowed(e.pos, "panic-ok")
		if bare != nil {
			out = append(out, p.finding("panicpath", e.pos,
				"//bitflow:panic-ok needs a justification string"))
		}
		return ok
	}
	reached := g.reach(roots, reachOpts{skipEdge: skip})

	for _, n := range g.nodes {
		if !reached[n] {
			continue
		}
		for _, pos := range n.panics {
			out = append(out, p.excusable("panicpath", pos, "panic-ok",
				"panic reachable from serve/registry entry points without a resilience.Safe guard")...)
		}
	}
	return out
}

// handlerFunc reports whether the function takes an http.ResponseWriter
// (the shape of every HTTP handler and handler helper).
func handlerFunc(n *funcNode) bool {
	if n.decl == nil || n.decl.Type.Params == nil {
		return false
	}
	for _, field := range n.decl.Type.Params.List {
		t := n.pkg.Info.Types[field.Type].Type
		if t == nil {
			continue
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
			return true
		}
	}
	return false
}

// exportedRegistryMethod reports whether the node is an exported method
// on registry.Model. The swap protocol is driven
// from a SIGHUP goroutine as well as HTTP handlers, so a panic escaping
// it has no recovering caller.
func exportedRegistryMethod(n *funcNode) bool {
	if !pathSuffix(n.pkg.Path, "internal/registry") {
		return false
	}
	return n.recvTypeName() == "Model" && n.obj != nil && n.obj.Exported()
}

// goTargets resolves the functions and literals launched by go
// statements lexically inside n.
func goTargets(g *callGraph, n *funcNode) []*funcNode {
	var out []*funcNode
	ast.Inspect(n.body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		gs, ok := node.(*ast.GoStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(gs.Call.Fun).(type) {
		case *ast.FuncLit:
			if ln := g.byLit[fun]; ln != nil {
				out = append(out, ln)
			}
		default:
			if fn := calleeFunc(n.pkg.Info, gs.Call); fn != nil {
				if fnode := g.byObj[fn]; fnode != nil {
					out = append(out, fnode)
				}
			}
		}
		return true
	})
	return out
}

// kernelsPanics restricts internal/kernels panics to the sanctioned
// helper functions.
func kernelsPanics(p *Program) []Finding {
	g := p.graph()
	var out []Finding
	for _, n := range g.nodes {
		if !pathSuffix(n.pkg.Path, "internal/kernels") {
			continue
		}
		if strings.HasPrefix(n.name(), "panic") {
			continue // a sanctioned helper
		}
		for _, pos := range n.panics {
			out = append(out, p.excusable("panicpath", pos, "panic-ok",
				"kernels may only panic via the panic* size-mismatch helpers")...)
		}
	}
	return out
}
